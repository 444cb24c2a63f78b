package trace

import (
	"bytes"
	"testing"

	"loadsched/internal/uop"
)

// fuzzTraceSeeds builds the shared corpus: well-formed traces in both file
// versions plus structural mutations (truncation, version relabeling, CRC
// damage) that exercise every rejection path.
func fuzzTraceSeeds(f *testing.F) {
	f.Helper()
	var v2, v1 bytes.Buffer
	if err := WriteTrace(&v2, New(Profile{Name: "seed", Seed: 1}), 64); err != nil {
		f.Fatal(err)
	}
	if err := writeTraceV1(&v1, New(Profile{Name: "seed", Seed: 1}), 64); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1.Bytes())
	f.Add(v2.Bytes()[:20])
	f.Add(v2.Bytes()[:len(v2.Bytes())-3]) // truncated mid-CRC
	f.Add([]byte("LSUT"))
	f.Add([]byte{})
	relabel := append([]byte{}, v1.Bytes()...)
	relabel[4] = 2 // v1 body labeled v2: chunk framing garbage
	f.Add(relabel)
	crc := append([]byte{}, v2.Bytes()...)
	crc[len(crc)-10] ^= 0x40 // damage inside the last chunk's payload/CRC
	f.Add(crc)
}

// fuzzCheckUops drains a bounded number of uops from any source, asserting
// the invariant both readers promise on accepted files: strictly increasing
// Seq, across at least one wrap.
func fuzzCheckUops(t *testing.T, length int, next func() uop.UOp) {
	n := length*2 + 4
	if n > 4096 {
		n = 4096
	}
	prev := int64(-1)
	for i := 0; i < n; i++ {
		u := next()
		if u.Seq <= prev {
			t.Fatalf("Seq regressed: %d after %d", u.Seq, prev)
		}
		prev = u.Seq
	}
}

// FuzzReader hardens the in-RAM trace-file parser against corrupt input: it
// must either return an error or produce a reader whose records all have
// valid kinds and monotonic Seq — never panic or hang.
func FuzzReader(f *testing.F) {
	fuzzTraceSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if rd.Len() <= 0 {
			t.Fatal("reader with no records must be an error")
		}
		fuzzCheckUops(t, rd.Len(), rd.Next)
	})
}

// FuzzStreamReader holds the constant-memory reader to the same contract as
// the in-RAM one, and additionally requires the two to agree on whether an
// input is acceptable at all.
func FuzzStreamReader(f *testing.F) {
	fuzzTraceSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, serr := NewStreamReader(bytes.NewReader(data))
		rd, rerr := NewReader(bytes.NewReader(data))
		if (serr == nil) != (rerr == nil) {
			t.Fatalf("readers disagree: stream err %v, in-RAM err %v", serr, rerr)
		}
		if serr != nil {
			return
		}
		defer sr.Close()
		if sr.Uops() != int64(rd.Len()) {
			t.Fatalf("stream sees %d uops, in-RAM %d", sr.Uops(), rd.Len())
		}
		fuzzCheckUops(t, rd.Len(), func() uop.UOp {
			want, got := rd.Next(), sr.Next()
			if got != want {
				t.Fatalf("streams diverge: %+v vs %+v", got, want)
			}
			return got
		})
	})
}

// FuzzGeneratorProfile hardens generator construction against odd profile
// values: any profile that survives withDefaults must generate without
// panicking.
func FuzzGeneratorProfile(f *testing.F) {
	f.Add(int64(1), 4, 2, 3, 0.2, 0.1)
	f.Add(int64(99), 64, 12, 1, 0.5, 0.4)
	f.Fuzz(func(t *testing.T, seed int64, funcs, blockLen, depth int, loadFrac, storeFrac float64) {
		if funcs < 1 || funcs > 128 || blockLen < 1 || blockLen > 32 || depth < 1 || depth > 12 {
			t.Skip()
		}
		if loadFrac < 0 || storeFrac < 0 || loadFrac+storeFrac > 0.9 {
			t.Skip()
		}
		p := Profile{
			Name: "fuzz", Seed: seed,
			NumFuncs: funcs, MeanBlockLen: blockLen, MaxCallDepth: depth,
			LoadFrac: loadFrac, StoreFrac: storeFrac,
		}
		g := New(p)
		for i := 0; i < 2000; i++ {
			u := g.Next()
			if u.Seq != int64(i) {
				t.Fatalf("Seq %d at position %d", u.Seq, i)
			}
		}
	})
}
