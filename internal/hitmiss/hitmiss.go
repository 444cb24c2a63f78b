// Package hitmiss implements the paper's second contribution: data-cache
// hit-miss prediction (§2.2). Predicting each load's L1 outcome lets the
// scheduler wake dependents at the actual data-ready time instead of
// speculating an L1 hit and replaying on every miss.
//
// The two configurations the paper evaluates are provided — the adapted
// local predictor (2048-entry tagless, 8-outcome history) and the hybrid
// chooser (local-512 + gshare-11 + gskew-20, majority vote) — plus the
// always-hit baseline of current processors, a perfect oracle, and the
// timing enhancement that consults the outstanding-miss queue.
package hitmiss

import (
	"fmt"

	"loadsched/internal/cache"
	"loadsched/internal/predict"
)

// Predictor predicts whether a load will hit the first-level data cache.
// ip is the load's instruction pointer; addr and now are provided for
// timing- and address-based predictors and ignored by history-only ones.
type Predictor interface {
	// PredictHit returns true if the load is predicted to hit L1.
	PredictHit(ip, addr uint64, now int64) bool
	// Update trains the predictor with the actual outcome.
	Update(ip, addr uint64, now int64, hit bool)
	// Reset clears all state.
	Reset()
	// Name identifies the configuration.
	Name() string
}

// AlwaysHit is today's implicit predictor: every load is scheduled as an L1
// hit, and every miss replays its dependents. It is the baseline of
// Figure 11.
type AlwaysHit struct{}

// PredictHit implements Predictor.
func (AlwaysHit) PredictHit(uint64, uint64, int64) bool { return true }

// Update implements Predictor.
func (AlwaysHit) Update(uint64, uint64, int64, bool) {}

// Reset implements Predictor.
func (AlwaysHit) Reset() {}

// Name implements Predictor.
func (AlwaysHit) Name() string { return "always-hit" }

// Describe canonically identifies the predictor for the simulation runner's
// memo keys.
func (AlwaysHit) Describe() string { return "always-hit" }

// binaryAdapter adapts a predict.Binary (which predicts "taken") to hit-miss
// prediction. The binary outcome is MISS (the rare event), so an unwarmed
// table defaults to predicting hits. desc canonically records the wrapped
// predictor's construction geometry for memo keys.
type binaryAdapter struct {
	bin  predict.Binary
	name string
	desc string
}

// PredictHit implements Predictor.
func (a *binaryAdapter) PredictHit(ip, _ uint64, _ int64) bool {
	return !a.bin.Predict(ip).Taken
}

// Update implements Predictor.
func (a *binaryAdapter) Update(ip, _ uint64, _ int64, hit bool) {
	a.bin.Update(ip, !hit)
}

// Reset implements Predictor.
func (a *binaryAdapter) Reset() { a.bin.Reset() }

// Name implements Predictor.
func (a *binaryAdapter) Name() string { return a.name }

// Describe canonically identifies a freshly built predictor for memo keys.
func (a *binaryAdapter) Describe() string { return a.desc }

// NewLocal returns the paper's local hit-miss predictor: a tagless table of
// 2048 entries recording the 8-outcome hit/miss history of each load (~2KB).
func NewLocal() Predictor {
	return &binaryAdapter{bin: predict.NewLocal(11, 8, 2).WithInit(0), name: "local",
		desc: "local(11,8,2)"}
}

// NewLocalSized returns a local predictor with explicit geometry, for
// sensitivity sweeps.
func NewLocalSized(indexBits, historyLen uint) Predictor {
	return &binaryAdapter{bin: predict.NewLocal(indexBits, historyLen, 2).WithInit(0), name: "local-sized",
		desc: fmt.Sprintf("local(%d,%d,2)", indexBits, historyLen)}
}

// NewChooser returns the paper's hybrid predictor: a 512-entry local
// component plus two global components — a gshare over an 11-load history
// and a gskew with 3 tables of 1K entries over a 20-load history (total
// < 2KB). The components vote by majority, and a miss is predicted only when
// the per-load local component is among the miss voters: the majority acts
// as the confidence mechanism §2.2 describes, cutting the AH-PM false alarms
// the local-only predictor suffers.
func NewChooser() Predictor {
	return &chooser{
		local:  predict.NewLocal(9, 8, 2).WithInit(0),
		gshare: predict.NewGShare(11, 11, 2).WithInit(0),
		gskew:  predict.NewGSkew(10, 20, 2).WithInit(0),
	}
}

// chooser is the hybrid HMP of §2.2.
type chooser struct {
	local  *predict.Local
	gshare *predict.GShare
	gskew  *predict.GSkew
}

// PredictHit implements Predictor.
func (c *chooser) PredictHit(ip, _ uint64, _ int64) bool {
	lm := c.local.Predict(ip).Taken // taken = miss
	gm := c.gshare.Predict(ip).Taken
	km := c.gskew.Predict(ip).Taken
	votes := 0
	if lm {
		votes++
	}
	if gm {
		votes++
	}
	if km {
		votes++
	}
	// Miss needs a majority that includes the local component; global-only
	// agreement is too often table pollution.
	return !(votes >= 2 && lm)
}

// Update implements Predictor.
func (c *chooser) Update(ip, _ uint64, _ int64, hit bool) {
	c.local.Update(ip, !hit)
	c.gshare.Update(ip, !hit)
	c.gskew.Update(ip, !hit)
}

// Reset implements Predictor.
func (c *chooser) Reset() {
	c.local.Reset()
	c.gshare.Reset()
	c.gskew.Reset()
}

// Name implements Predictor.
func (c *chooser) Name() string { return "chooser" }

// Describe canonically identifies the fixed-geometry chooser for memo keys.
func (c *chooser) Describe() string { return "chooser(l9/8,g11/11,k10/20)" }

// Perfect is the oracle predictor: it probes the actual cache state at
// prediction time. Its speedup bounds what any real HMP can deliver
// (Figure 11's "Perfect" bars).
type Perfect struct {
	// Hierarchy is the data hierarchy the engine simulates.
	Hierarchy *cache.Hierarchy
}

// PredictHit implements Predictor.
func (p *Perfect) PredictHit(_, addr uint64, _ int64) bool {
	return p.Hierarchy.Probe(addr) == cache.L1
}

// Update implements Predictor.
func (p *Perfect) Update(uint64, uint64, int64, bool) {}

// Reset implements Predictor.
func (p *Perfect) Reset() {}

// Name implements Predictor.
func (p *Perfect) Name() string { return "perfect" }

// Describe canonically identifies the oracle for memo keys. A Perfect with
// a pre-wired external hierarchy observes state the description cannot
// capture, so it returns "" (not memoizable); the common engine-injected
// form (Hierarchy left nil) is fully determined by the run itself.
func (p *Perfect) Describe() string {
	if p.Hierarchy != nil {
		return ""
	}
	return "perfect"
}

// Outcomes tallies loads into the four hit-miss prediction categories of
// §2.2.
type Outcomes struct {
	// AHPH: actual hit, predicted hit — today's common case, no effect.
	AHPH uint64
	// AHPM: actual hit, predicted miss — dependents needlessly delayed.
	AHPM uint64
	// AMPH: actual miss, predicted hit — the expensive replay case.
	AMPH uint64
	// AMPM: actual miss, predicted miss — a caught miss, the win.
	AMPM uint64
}

// Loads returns the number of classified loads.
func (o *Outcomes) Loads() uint64 { return o.AHPH + o.AHPM + o.AMPH + o.AMPM }

// Misses returns all actual misses (the traditional method's mispredictions).
func (o *Outcomes) Misses() uint64 { return o.AMPH + o.AMPM }

// Record tallies one load.
func (o *Outcomes) Record(actualHit, predictedHit bool) {
	switch {
	case actualHit && predictedHit:
		o.AHPH++
	case actualHit && !predictedHit:
		o.AHPM++
	case !actualHit && predictedHit:
		o.AMPH++
	default:
		o.AMPM++
	}
}

// Add accumulates another tally.
func (o *Outcomes) Add(x Outcomes) {
	o.AHPH += x.AHPH
	o.AHPM += x.AHPM
	o.AMPH += x.AMPH
	o.AMPM += x.AMPM
}

// Frac returns n as a fraction of all loads (the unit of Figure 10).
func (o *Outcomes) Frac(n uint64) float64 {
	if o.Loads() == 0 {
		return 0
	}
	return float64(n) / float64(o.Loads())
}
