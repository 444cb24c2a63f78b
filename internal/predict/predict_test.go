package predict

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSatCounterBounds(t *testing.T) {
	for _, bits := range []uint{1, 2, 3, 4} {
		c := NewSatCounter(bits)
		max := uint8(1)<<bits - 1
		for i := 0; i < 100; i++ {
			c.Inc()
		}
		if c.Value() != max {
			t.Errorf("bits=%d: after many Inc value=%d want %d", bits, c.Value(), max)
		}
		if !c.Taken() {
			t.Errorf("bits=%d: saturated counter should predict taken", bits)
		}
		for i := 0; i < 100; i++ {
			c.Dec()
		}
		if c.Value() != 0 {
			t.Errorf("bits=%d: after many Dec value=%d want 0", bits, c.Value())
		}
		if c.Taken() {
			t.Errorf("bits=%d: zero counter should predict not-taken", bits)
		}
	}
}

func TestSatCounterInitWeak(t *testing.T) {
	c := NewSatCounter(2)
	if c.Value() != 1 {
		t.Fatalf("2-bit counter should init to 1, got %d", c.Value())
	}
	if c.Taken() {
		t.Fatal("weakly-not-taken should predict not-taken")
	}
	c.Train(true)
	c.Train(true)
	if !c.Taken() {
		t.Fatal("two taken outcomes should flip a 2-bit counter")
	}
}

func TestSatCounterConfidenceSymmetric(t *testing.T) {
	c := NewSatCounter(2)
	// Values 0..3 should have confidences 1,0,0,1.
	want := []int{1, 0, 0, 1}
	for v := 0; v < 4; v++ {
		c.value = uint8(v)
		if got := c.Confidence(); got != want[v] {
			t.Errorf("value=%d confidence=%d want %d", v, got, want[v])
		}
	}
}

func TestSatCounterInvalidWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0-bit counter")
		}
	}()
	NewSatCounter(0)
}

func TestSatCounterTrainNeverEscapesRange(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewSatCounter(uint(n%3 + 1))
		for i := 0; i < 200; i++ {
			c.Train(rng.Intn(2) == 0)
			if c.Value() > c.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// testLearnsFixedBehavior replays a fixed cyclic sequence of keys, each with
// a fixed outcome. The deterministic order keeps global history periodic, so
// every predictor family (per-address and global-history alike) should learn
// the behavior almost perfectly.
func testLearnsFixedBehavior(t *testing.T, p Binary, name string) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	keys := make([]uint64, 32)
	out := make([]bool, 32)
	for i := range keys {
		keys[i] = uint64(0x4000 + i*16)
		out[i] = rng.Intn(2) == 0
	}
	// Warmup.
	for step := 0; step < 4000; step++ {
		i := step % len(keys)
		p.Update(keys[i], out[i])
	}
	correct, total := 0, 0
	for step := 0; step < 2000; step++ {
		i := step % len(keys)
		if p.Predict(keys[i]).Taken == out[i] {
			correct++
		}
		total++
		p.Update(keys[i], out[i])
	}
	acc := float64(correct) / float64(total)
	if acc < 0.95 {
		t.Errorf("%s: accuracy on fixed per-key behavior = %.3f, want >= 0.95", name, acc)
	}
}

func TestBimodalLearnsFixedBehavior(t *testing.T) {
	testLearnsFixedBehavior(t, NewBimodal(12, 2), "bimodal")
}

func TestLocalLearnsFixedBehavior(t *testing.T) {
	testLearnsFixedBehavior(t, NewLocal(11, 8, 2), "local")
}

func TestGShareLearnsFixedBehavior(t *testing.T) {
	testLearnsFixedBehavior(t, NewGShare(12, 11, 2), "gshare")
}

func TestGSkewLearnsFixedBehavior(t *testing.T) {
	testLearnsFixedBehavior(t, NewGSkew(10, 17, 2), "gskew")
}

func TestMajorityLearnsFixedBehavior(t *testing.T) {
	c := NewMajority(NewLocal(9, 8, 2), NewGShare(11, 11, 2), NewGSkew(10, 17, 2))
	testLearnsFixedBehavior(t, c, "majority(local,gshare,gskew)")
}

func TestLocalLearnsAlternatingPattern(t *testing.T) {
	// A local predictor must learn a per-key alternating pattern that defeats
	// a bimodal table.
	l := NewLocal(11, 8, 2)
	key := uint64(0x1234)
	outcome := false
	for i := 0; i < 200; i++ {
		l.Update(key, outcome)
		outcome = !outcome
	}
	correct := 0
	for i := 0; i < 100; i++ {
		if l.Predict(key).Taken == outcome {
			correct++
		}
		l.Update(key, outcome)
		outcome = !outcome
	}
	if correct < 98 {
		t.Errorf("local predictor got %d/100 on alternating pattern", correct)
	}
}

func TestGShareLearnsCorrelatedPattern(t *testing.T) {
	// Outcome of key B equals the previous outcome of key A: global history
	// predictors learn this, per-address ones cannot.
	g := NewGShare(12, 8, 2)
	rng := rand.New(rand.NewSource(7))
	prevA := false
	train := func(n int, score *int, total *int) {
		for i := 0; i < n; i++ {
			a := rng.Intn(2) == 0
			g.Update(0xA000, a)
			if score != nil {
				if g.Predict(0xB000).Taken == a {
					*score++
				}
				*total++
			}
			g.Update(0xB000, a)
			prevA = a
		}
	}
	_ = prevA
	train(3000, nil, nil)
	score, total := 0, 0
	train(1000, &score, &total)
	if acc := float64(score) / float64(total); acc < 0.9 {
		t.Errorf("gshare accuracy on correlated pattern = %.3f, want >= 0.9", acc)
	}
}

func TestCombinedPolicies(t *testing.T) {
	yes := &constPred{taken: true, conf: 3}
	no := &constPred{taken: false, conf: 0}
	t.Run("majority", func(t *testing.T) {
		c := &Combined{Components: []Binary{yes, yes, no}, Policy: Majority}
		r := c.PredictRated(1)
		if !r.Predicted || !r.Taken {
			t.Fatalf("majority of {T,T,F} = %+v, want predicted taken", r)
		}
	})
	t.Run("weighted-sum-threshold", func(t *testing.T) {
		c := &Combined{Components: []Binary{yes, no}, Weights: []int{2, 1}, Policy: WeightedSum, Threshold: 2}
		r := c.PredictRated(1)
		if r.Predicted {
			t.Fatalf("sum=+1 below threshold 2 should abstain, got %+v", r)
		}
		c.Threshold = 1
		r = c.PredictRated(1)
		if !r.Predicted || !r.Taken {
			t.Fatalf("sum=+1 at threshold 1 should predict taken, got %+v", r)
		}
	})
	t.Run("high-confidence", func(t *testing.T) {
		c := &Combined{Components: []Binary{yes, no, no}, Policy: HighConfidence, MinConfidence: 2}
		r := c.PredictRated(1)
		if !r.Predicted || !r.Taken {
			t.Fatalf("only the confident component should vote, got %+v", r)
		}
	})
	t.Run("confidence-weighted", func(t *testing.T) {
		c := &Combined{Components: []Binary{yes, no, no}, Policy: ConfidenceWeighted}
		r := c.PredictRated(1)
		// yes has weight 4, the two no's weight 1 each → sum=+2.
		if !r.Taken || r.Confidence != 2 {
			t.Fatalf("confidence weighting wrong: %+v", r)
		}
	})
}

func TestCombinedUpdateAndReset(t *testing.T) {
	b1, b2 := NewBimodal(4, 2), NewBimodal(4, 2)
	c := NewMajority(b1, b2)
	for i := 0; i < 10; i++ {
		c.Update(5, true)
	}
	if !b1.Predict(5).Taken || !b2.Predict(5).Taken {
		t.Fatal("Update must train all components")
	}
	c.Reset()
	if b1.Predict(5).Taken || b2.Predict(5).Taken {
		t.Fatal("Reset must clear all components")
	}
}

func TestPredictIsPure(t *testing.T) {
	preds := map[string]Binary{
		"bimodal": NewBimodal(8, 2),
		"local":   NewLocal(8, 8, 2),
		"gshare":  NewGShare(8, 8, 2),
		"gskew":   NewGSkew(8, 8, 2),
	}
	for name, p := range preds {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 500; i++ {
			p.Update(uint64(rng.Intn(64)), rng.Intn(2) == 0)
		}
		key := uint64(17)
		first := p.Predict(key)
		for i := 0; i < 10; i++ {
			if got := p.Predict(key); got != first {
				t.Errorf("%s: Predict mutated state (call %d: %+v != %+v)", name, i, got, first)
			}
		}
	}
}

func TestGShareHistoryFolding(t *testing.T) {
	// historyLen > indexBits must not panic and must still learn.
	g := NewGShare(8, 20, 2)
	testLearnsFixedBehavior(t, g, "gshare-folded")
}

func TestResetClearsLearning(t *testing.T) {
	for name, p := range map[string]Binary{
		"bimodal": NewBimodal(8, 2),
		"local":   NewLocal(8, 8, 2),
		"gshare":  NewGShare(8, 8, 2),
		"gskew":   NewGSkew(8, 8, 2),
	} {
		for i := 0; i < 50; i++ {
			p.Update(99, true)
		}
		if !p.Predict(99).Taken {
			t.Errorf("%s: did not learn before reset", name)
			continue
		}
		p.Reset()
		if p.Predict(99).Taken {
			t.Errorf("%s: still predicts taken after Reset", name)
		}
	}
}

// constPred is a test stub with a fixed prediction.
type constPred struct {
	taken bool
	conf  int
}

func (c *constPred) Predict(uint64) Prediction { return Prediction{Taken: c.taken, Confidence: c.conf} }
func (c *constPred) Update(uint64, bool)       {}
func (c *constPred) Reset()                    {}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		Majority:           "majority",
		WeightedSum:        "weighted-sum",
		HighConfidence:     "high-confidence",
		ConfidenceWeighted: "confidence-weighted",
	} {
		if p.String() != want {
			t.Errorf("Policy(%d).String()=%q want %q", p, p.String(), want)
		}
	}
}

// refGSkew is the reference GSkew formulation: it re-hashes (key, history)
// for every bank it reads, votes in one pass and trains in a second, and
// rebuilds its masks on every hash. The production GSkew derives all three
// bank indices from one hash per call and reads each counter once; the two
// must agree exactly.
type refGSkew struct {
	banks      ctrTable
	history    uint64
	indexBits  uint
	historyLen uint
}

func newRefGSkew(indexBits, historyLen, counterBits uint) *refGSkew {
	return &refGSkew{indexBits: indexBits, historyLen: historyLen,
		banks: newCtrTable(3<<indexBits, counterBits, satInit(counterBits))}
}

func (g *refGSkew) skewHash(bank int, key uint64) uint64 {
	var muls = [3]uint64{0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9}
	v := hashIP(key) ^ (g.history & mask(g.historyLen))
	v *= muls[bank]
	v ^= v >> 31
	return uint64(bank)<<g.indexBits | v&mask(g.indexBits)
}

func (g *refGSkew) vote(key uint64) (taken bool, agree int) {
	votes := 0
	for b := 0; b < 3; b++ {
		if g.banks.taken(g.skewHash(b, key)) {
			votes++
		}
	}
	taken = votes >= 2
	if taken {
		agree = votes
	} else {
		agree = 3 - votes
	}
	return taken, agree
}

func (g *refGSkew) Predict(key uint64) Prediction {
	taken, agree := g.vote(key)
	return Prediction{Taken: taken, Confidence: (agree - 2) * 2}
}

func (g *refGSkew) Update(key uint64, outcome bool) {
	predicted, _ := g.vote(key)
	for b := 0; b < 3; b++ {
		i := g.skewHash(b, key)
		if predicted == outcome && g.banks.taken(i) != outcome {
			continue
		}
		g.banks.train(i, outcome)
	}
	g.history <<= 1
	if outcome {
		g.history |= 1
	}
}

// TestGSkewMatchesReference drives the production GSkew and the reference
// formulation with the same seeded key/outcome streams at every production
// geometry — (10,17,3) for bank predictors A/C and the policy table, and
// (10,20,2) with init 0 for the hybrid hit-miss chooser — and requires the
// same prediction at every step and the same tables at the end.
func TestGSkewMatchesReference(t *testing.T) {
	geoms := []struct {
		indexBits, historyLen, counterBits uint
		init                               int // -1: the constructor's default
	}{
		{10, 17, 3, -1},
		{10, 20, 2, 0},
		{8, 8, 2, -1}, // history shorter than the index, as in small tests
	}
	for _, geo := range geoms {
		for _, seed := range []int64{1, 2, 3} {
			got := NewGSkew(geo.indexBits, geo.historyLen, geo.counterBits)
			want := newRefGSkew(geo.indexBits, geo.historyLen, geo.counterBits)
			if geo.init >= 0 {
				got.WithInit(uint8(geo.init))
				want.banks.init = uint8(geo.init)
				want.banks.reset()
			}
			rng := rand.New(rand.NewSource(seed))
			// Load IPs: a hot working set plus a cold tail, with outcomes
			// biased per key so the banks learn and still disagree.
			hot := make([]uint64, 300)
			bias := make([]int, len(hot))
			for i := range hot {
				hot[i] = 0x400000 + uint64(rng.Intn(1<<16))*4
				bias[i] = rng.Intn(10)
			}
			for step := 0; step < 60_000; step++ {
				var key uint64
				var outcome bool
				if i := rng.Intn(len(hot) + 30); i < len(hot) {
					key, outcome = hot[i], rng.Intn(10) < bias[i]
				} else {
					key, outcome = rng.Uint64(), rng.Intn(2) == 0
				}
				if g, w := got.Predict(key), want.Predict(key); g != w {
					t.Fatalf("geometry %+v seed %d step %d key %#x: Predict = %+v, reference %+v",
						geo, seed, step, key, g, w)
				}
				got.Update(key, outcome)
				want.Update(key, outcome)
			}
			if got.history != want.history {
				t.Fatalf("geometry %+v seed %d: history %#x, reference %#x", geo, seed, got.history, want.history)
			}
			for i := range want.banks.v {
				if got.banks.v[i] != want.banks.v[i] {
					t.Fatalf("geometry %+v seed %d: counter %d = %d, reference %d",
						geo, seed, i, got.banks.v[i], want.banks.v[i])
				}
			}
		}
	}
}
