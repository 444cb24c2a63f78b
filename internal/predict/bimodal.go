package predict

// Bimodal is the classic per-address table of saturating counters, indexed by
// a hash of the key with no history. It is the simplest component predictor
// the paper combines into bank predictor B. The counters live in a flat
// ctrTable byte array; the index mask is fixed at construction.
type Bimodal struct {
	table   ctrTable
	idxMask uint64
}

// NewBimodal returns a bimodal predictor with 2^indexBits counters of
// counterBits each.
func NewBimodal(indexBits, counterBits uint) *Bimodal {
	b := &Bimodal{idxMask: mask(indexBits)}
	b.table = newCtrTable(1<<indexBits, counterBits, satInit(counterBits))
	return b
}

func (b *Bimodal) index(key uint64) uint64 { return hashIP(key) & b.idxMask }

// Predict implements Binary.
func (b *Bimodal) Predict(key uint64) Prediction {
	return b.table.predict(b.index(key))
}

// Update implements Binary.
func (b *Bimodal) Update(key uint64, outcome bool) {
	b.table.train(b.index(key), outcome)
}

// Reset implements Binary. The table is allocated once and reinitialized in
// place, so a reset predictor is reusable without regrowing the heap.
func (b *Bimodal) Reset() {
	b.table.reset()
}

// Size returns the number of table entries.
func (b *Bimodal) Size() int { return len(b.table.v) }
