package predict

// GSkew is the skewed global predictor of Michaud, Seznec and Uhlig
// ([Mich97]): three counter banks indexed by three different hash functions
// of (key, global history), with a majority vote across banks. Skewing
// spreads aliases so that two keys that collide in one bank rarely collide in
// another. The paper's hybrid HMP uses 3 tables of 1K entries over a
// 20-outcome history; bank predictors A and C use a 17-outcome history.
//
// The three banks live in ONE flat ctrTable: bank b occupies entries
// [b<<indexBits, (b+1)<<indexBits), so a vote touches one byte array. The
// index and history masks are fixed at construction, and each call hashes
// (key, history) once and derives all three bank indices from that hash.
type GSkew struct {
	banks     ctrTable
	history   uint64
	indexBits uint
	idxMask   uint64
	histMask  uint64
}

// NewGSkew returns a gskew predictor with three 2^indexBits-entry banks and a
// historyLen-outcome global history.
func NewGSkew(indexBits, historyLen, counterBits uint) *GSkew {
	g := &GSkew{indexBits: indexBits, idxMask: mask(indexBits), histMask: mask(historyLen)}
	g.banks = newCtrTable(3<<indexBits, counterBits, satInit(counterBits))
	return g
}

// skewMuls are the per-bank multipliers that decorrelate the three bank
// indices. They stand in for the H/H^-1 skewing functions of [Mich97]; only
// the decorrelation property matters here.
var skewMuls = [3]uint64{0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9}

// skew maps the shared (key, history) hash v to an entry of bank b's slice
// of the flat table.
func (g *GSkew) skew(b int, v uint64) uint64 {
	v *= skewMuls[b]
	v ^= v >> 31
	return uint64(b)<<g.indexBits | v&g.idxMask
}

// indices returns key's entry in each of the three banks under the current
// history.
func (g *GSkew) indices(key uint64) (i0, i1, i2 uint64) {
	v := hashIP(key) ^ (g.history & g.histMask)
	return g.skew(0, v), g.skew(1, v), g.skew(2, v)
}

// majority returns the majority direction of three bank votes and the number
// of banks that agree with it.
func majority(t0, t1, t2 bool) (taken bool, agree int) {
	votes := 0
	if t0 {
		votes++
	}
	if t1 {
		votes++
	}
	if t2 {
		votes++
	}
	if votes >= 2 {
		return true, votes
	}
	return false, 3 - votes
}

// Predict implements Binary. Confidence is 0 for a 2-1 vote and 2 for a
// unanimous vote, scaled so it is comparable with counter confidences.
func (g *GSkew) Predict(key uint64) Prediction {
	i0, i1, i2 := g.indices(key)
	taken, agree := majority(g.banks.taken(i0), g.banks.taken(i1), g.banks.taken(i2))
	return Prediction{Taken: taken, Confidence: (agree - 2) * 2}
}

// Update implements Binary. Banks follow partial update: all banks train on
// a correct prediction only if they agreed; on a misprediction every bank
// trains toward the outcome ([Mich97] partial-update policy). The three
// entries lie in disjoint banks, so each bank's vote is read once and serves
// both the majority and its own training decision.
func (g *GSkew) Update(key uint64, outcome bool) {
	i0, i1, i2 := g.indices(key)
	t0, t1, t2 := g.banks.taken(i0), g.banks.taken(i1), g.banks.taken(i2)
	predicted, _ := majority(t0, t1, t2)
	correct := predicted == outcome
	// On a correct prediction a dissenting bank is left undisturbed.
	if !correct || t0 == outcome {
		g.banks.train(i0, outcome)
	}
	if !correct || t1 == outcome {
		g.banks.train(i1, outcome)
	}
	if !correct || t2 == outcome {
		g.banks.train(i2, outcome)
	}
	g.history <<= 1
	if outcome {
		g.history |= 1
	}
}

// WithInit sets the initial counter value and re-initializes; see
// GShare.WithInit.
func (g *GSkew) WithInit(v uint8) *GSkew {
	g.banks.init = v
	g.Reset()
	return g
}

// Reset implements Binary. The flat bank table is allocated once and
// reinitialized in place, so a reset predictor is reusable without regrowing
// the heap.
func (g *GSkew) Reset() {
	g.banks.reset()
	g.history = 0
}
