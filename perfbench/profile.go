package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// CPU-profile reduction. runtime/pprof writes a gzip-compressed
// profile.proto message; the benchmark decodes the few fields it needs
// (samples, locations, functions, the string table) with a minimal
// protobuf reader, because the module takes no dependencies.

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID       = 1
	functionName     = 2
	functionFilename = 4
)

// frame is one (possibly inlined) function in a call stack.
type frame struct {
	Name, File string
}

// stackSample is one profile sample: its call stack, leaf first with
// inlined frames expanded innermost first, and its CPU time in the last
// sample value (nanoseconds for a CPU profile).
type stackSample struct {
	Stack []frame
	Value int64
}

// parseProfile decodes a (gzipped or plain) profile.proto message.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type rawFunc struct{ name, file int64 }
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]rawFunc{}
		strs    []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					return appendVarints(&s.locs, wire, v, b)
				case sampleValue:
					var vs []uint64
					if err := appendVarints(&vs, wire, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var f rawFunc
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					f.name = int64(v)
				case functionFilename:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var st []frame
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				f := funcs[fid]
				st = append(st, frame{Name: str(f.name), File: str(f.file)})
			}
		}
		out = append(out, stackSample{Stack: st, Value: s.values[len(s.values)-1]})
	}
	return out, nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not (wire type 0), to dst.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

var errBadProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and either its varint value (wire type 0) or its bytes (wire
// type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
			continue
		default:
			return errBadProto
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// modulePrefix is the import-path prefix of the repository's packages.
const modulePrefix = "loadsched/internal/"

// funcPackage returns the import path of a profiled function name such as
// "loadsched/internal/ooo.(*Engine).cycle" or "runtime.memmove". Type
// arguments are cut first, since they may contain slashes and dots.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// gcRoots are runtime functions whose presence anywhere in a stack marks
// the sample as garbage-collector work (background marking, assists,
// sweeping and scavenging).
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true,
	"runtime.gcStart": true, "runtime.gcMarkDone": true,
	"runtime.gcMarkTermination": true, "runtime.sweepone": true,
	"runtime.markroot": true, "runtime.gcDrain": true,
}

// shares is a CPU profile reduced to self-time shares of the total.
type shares struct {
	// Package maps a repository package's short name ("ooo", "cache") to
	// the share of CPU time whose leaf frame lies in it.
	Package map[string]float64
	// OooFile maps an internal/ooo source file's base name without ".go"
	// ("schedule", "memory") to its self-time share.
	OooFile map[string]float64
	// GC is the share of samples with a garbage-collector frame anywhere
	// in the stack; Memmove the share whose leaf is runtime.memmove or
	// runtime.duffcopy.
	GC, Memmove float64
	// Total is the profile's CPU time in nanoseconds.
	Total int64
}

// reduce attributes every sample's CPU time to its leaf frame.
func reduce(samples []stackSample) shares {
	sh := shares{Package: map[string]float64{}, OooFile: map[string]float64{}}
	var gc, mm int64
	pkg := map[string]int64{}
	file := map[string]int64{}
	for _, s := range samples {
		sh.Total += s.Value
		if len(s.Stack) == 0 {
			continue
		}
		leaf := s.Stack[0]
		if short, ok := strings.CutPrefix(funcPackage(leaf.Name), modulePrefix); ok {
			pkg[short] += s.Value
			if short == "ooo" {
				file[strings.TrimSuffix(path.Base(leaf.File), ".go")] += s.Value
			}
		}
		if leaf.Name == "runtime.memmove" || leaf.Name == "runtime.duffcopy" {
			mm += s.Value
		}
		for _, f := range s.Stack {
			if gcRoots[f.Name] {
				gc += s.Value
				break
			}
		}
	}
	if sh.Total == 0 {
		return sh
	}
	t := float64(sh.Total)
	for k, v := range pkg {
		sh.Package[k] = float64(v) / t
	}
	for k, v := range file {
		sh.OooFile[k] = float64(v) / t
	}
	sh.GC, sh.Memmove = float64(gc)/t, float64(mm)/t
	return sh
}
