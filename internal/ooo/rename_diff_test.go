package ooo

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// Differential property tests for side-car rename. The engine resolves
// producers and each load's youngest older store from the trace layer's
// precomputed dependence side-car; renameOracle is the per-engine
// alias-table renamer that side-car replaced, kept here as the oracle. The
// tests drive the production engine one cycle at a time and check every
// renamed uop's producer links and store watermark against it, across
// randomized machines, mixed trace groups, reused pooled engines, wrapping
// file replay and a StoreID gap too wide for the side-car's store deltas.

// renameOracle mirrors rename with alias tables: for each architectural
// register the slot and Seq of its youngest renamed writer, and the id of
// the youngest store renamed so far.
type renameOracle struct {
	regProd   [uop.MaxArchRegs]int32
	regSeq    [uop.MaxArchRegs]int64
	lastStore int64
	// Coverage: uops checked, in-flight producer links found, loads.
	renamed, linked, loads int
}

func newRenameOracle() *renameOracle {
	o := &renameOracle{}
	for i := range o.regProd {
		o.regProd[i] = -1
	}
	return o
}

// lookup resolves source register r to its in-flight producer's slot and
// Seq, or (-1, 0) when the value is architectural. A writer whose slot is
// no longer valid, or now holds a different uop, has retired.
func (o *renameOracle) lookup(e *Engine, r uop.Reg) (int32, int64) {
	if r == uop.NoReg {
		return -1, 0
	}
	idx := o.regProd[r]
	if idx < 0 {
		return -1, 0
	}
	u := &e.rob.u[idx]
	if e.rob.flags[idx]&fValid == 0 || u.Seq != o.regSeq[r] || u.Dst != r {
		return -1, 0
	}
	return idx, u.Seq
}

// check replays the uops e renamed since its rename counter stood at age0
// through the oracle, oldest first. Rename is the last stage of a cycle,
// so those uops are the youngest in the window, and the slots they read
// producers from are exactly as rename saw them: retire ran before rename,
// and a slot reused later in the same rename group fails the Seq guard.
func (o *renameOracle) check(t testing.TB, e *Engine, age0 int64) {
	t.Helper()
	r := &e.rob
	k := int(e.renameAge - age0)
	for i := 0; i < k; i++ {
		idx := e.robIdx(e.count - k + i)
		if r.age[idx] != age0+int64(i) {
			t.Fatalf("slot %d has rename age %d, want %d", idx, r.age[idx], age0+int64(i))
		}
		u := &r.u[idx]
		srcs := [2]struct {
			reg  uop.Reg
			prod int32
			seq  int64
		}{{u.Src1, r.src1Prod[idx], r.src1Seq[idx]}, {u.Src2, r.src2Prod[idx], r.src2Seq[idx]}}
		for n, s := range srcs {
			p, q := o.lookup(e, s.reg)
			if s.prod != p || s.seq != q {
				t.Fatalf("uop %d (seq %d) src%d r%d: producer (slot %d, seq %d), oracle (slot %d, seq %d)",
					o.renamed, u.Seq, n+1, s.reg, s.prod, s.seq, p, q)
			}
			if p >= 0 {
				o.linked++
			}
		}
		if u.Dst != uop.NoReg {
			o.regProd[u.Dst], o.regSeq[u.Dst] = int32(idx), u.Seq
		}
		switch u.Kind {
		case uop.STA, uop.STD:
			if u.StoreID > o.lastStore {
				o.lastStore = u.StoreID
			}
		case uop.Load:
			if got := r.olderStores[idx]; got != o.lastStore {
				t.Fatalf("uop %d (seq %d) load: older stores through %d, oracle %d",
					o.renamed, u.Seq, got, o.lastStore)
			}
			o.loads++
		}
		o.renamed++
	}
}

// runOracle drives e as StepRun does — fast-forward over idle cycles, then
// one cycle — until at least n uops have renamed, checking every cycle's
// renames against a fresh oracle. It fails the test if the run never found
// an in-flight producer or a load, so a vacuous pass cannot hide.
func runOracle(t testing.TB, e *Engine, n int) *renameOracle {
	t.Helper()
	o := newRenameOracle()
	for cycles := 0; o.renamed < n; cycles++ {
		if cycles > 1000*n+1_000_000 {
			t.Fatalf("no rename progress after %d cycles (%d uops renamed)", cycles, o.renamed)
		}
		age0 := e.renameAge
		e.fastForward()
		e.cycle()
		o.check(t, e, age0)
	}
	if o.linked == 0 || o.loads == 0 {
		t.Fatalf("oracle run covered %d producer links and %d loads; want both nonzero", o.linked, o.loads)
	}
	return o
}

// TestRenameSidecarDiff checks side-car rename uop by uop on randomized
// machine+workload configurations over shared-recording cursors (the
// sweep hot path).
func TestRenameSidecarDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(0x51deca6))
	profiles := diffProfiles(rng, 5)
	for i := 0; i < 16; i++ {
		prof, build := profiles[rng.Intn(len(profiles))], diffConfig(rng)
		t.Run(fmt.Sprintf("random-%d", i), func(t *testing.T) {
			runOracle(t, NewEngine(build(), trace.Replay(prof)), 12000)
		})
	}
}

// TestRenameSidecarDiffPooledReuse drives one engine through Reset across
// a mixed sequence of trace groups — the engine-pool reuse pattern — and
// checks every run's renames. This is what catches stale per-slot state
// the trimmed clearSlot no longer rewrites.
func TestRenameSidecarDiffPooledReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9001ed))
	profiles := diffProfiles(rng, 4)
	e := NewEngine(DefaultConfig(), trace.Replay(profiles[0]))
	// Revisit groups so reuse happens both across and back onto a profile.
	for i, pi := range []int{0, 1, 2, 1, 3, 0, 2} {
		if i > 0 && !e.Reset(trace.Replay(profiles[pi])) {
			t.Fatal("default policy should be pool-reusable")
		}
		runOracle(t, e, 6000)
	}
}

// TestRenameSidecarDiffStreamWrap replays a recorded trace file through
// StreamReader past its end, so the side-car's renumbering-invariant deltas
// and per-pass store bases are checked across wrap-around.
func TestRenameSidecarDiffStreamWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(0x77a9))
	prof := diffProfiles(rng, 1)[0]
	path := filepath.Join(t.TempDir(), "wrap.trace")
	if err := trace.WriteTraceFile(path, prof, 6000); err != nil {
		t.Fatal(err)
	}
	r, err := trace.StreamTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// 13000 renamed uops cross two wraps of the 6000-uop file.
	runOracle(t, NewEngine(DefaultConfig(), r), 13000)
}

// TestRenameSidecarDiffStoreIDGap feeds StoreIDs that jump by more than
// uop.DepSaturated, which a trace file may carry. The side-car cannot
// delta-encode such a run (store base -1), so rename takes each load's
// youngest older store from the MOB instead; the oracle checks that
// fallback.
func TestRenameSidecarDiffStoreIDGap(t *testing.T) {
	const jump = uop.DepSaturated + 10
	var us []uop.UOp
	id := int64(0)
	for i := 0; i < 6; i++ {
		id++
		if i%2 == 1 {
			id += jump
		}
		us = append(us, mkStore(0x1000+uint64(i)*16, 0x9000+uint64(i)*8, id, 2)...)
		us = append(us,
			uop.UOp{IP: 0x2000 + uint64(i)*16, Kind: uop.Load, Addr: 0x9000 + uint64(i)*8, Size: 8, Dst: 3},
			uop.UOp{IP: 0x2004 + uint64(i)*16, Kind: uop.IntALU, Src1: 3, Dst: 2},
		)
	}
	src := newSliceSource(us)
	runOracle(t, NewEngine(testConfig(), src), 2*len(us))
	if src.run.fallbacks == 0 {
		t.Fatal("no run was served with store base -1; the MOB fallback went unexercised")
	}
}
