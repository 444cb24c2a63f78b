package ooo

import (
	"loadsched/internal/memdep"
	"loadsched/internal/uop"
)

// Front-end stage: fetch + rename. Pulls up to FetchWidth uops per cycle
// from the source, allocates ROB/scheduling-window slots (clearing the
// slot's parallel-array fields in place — no struct copy, no allocation),
// resolves register producers, opens MOB records for store halves, and
// consults the speculation policy for each load's collision prediction. A
// mispredicted branch stalls fetch until the branch resolves plus the
// refill bubble.
//
// Producer resolution has two implementations that yield bit-identical
// machines:
//
//   - Side-car rename (renameDep), used when the source publishes the
//     static dependence side-car (DepBatchSource). The trace layer has
//     already answered "who produces this register?" as a backward
//     stream-position delta, so rename reduces to a watermark compare:
//     a producer delta db is in flight exactly when db <= count, and its
//     slot is then robIdx(count-db) — rename and retire are both in order,
//     so the last count stream positions occupy the ROB densely. No alias
//     tables are maintained at all.
//   - Legacy alias-table rename (rename/lookupProducer), the original
//     per-engine derivation. Used whenever the source has no side-car
//     (plain generators) or the rename pool is too large for the delta
//     saturation bound, and pinned by reference.aliasRename as the
//     differential oracle for the side-car path.
//
// The mode is fixed per source: alias tables are not maintained while the
// side-car path runs, so the two cannot be mixed within a run.

func (e *Engine) fetchRename() {
	if e.awaitingBranch || e.now < e.resumeAt {
		return
	}
	if e.depSrc != nil {
		e.fetchRenameDep()
		return
	}
	for i := 0; i < e.cfg.FetchWidth; i++ {
		if e.count >= e.rob.size() || e.rsCount >= e.cfg.Window {
			e.stats.RenameStalls++
			e.cycleRenameStalled = true
			return
		}
		u := e.nextUop()
		e.rename(u)
		if u.Kind == uop.Branch && u.Mispredicted {
			// Fetch goes down the wrong path; stall until this branch
			// resolves plus the refill bubble.
			e.stats.BranchMispredicts++
			e.awaitingBranch = true
			return
		}
	}
}

// fetchRenameDep is fetchRename's side-car path: the fetch views refill
// through NextBatchRef so every uop arrives with its dependence links
// straight out of the source's decoded chunk — no copy into a fetch buffer
// at all — and uops are renamed in place by pointer.
func (e *Engine) fetchRenameDep() {
	for i := 0; i < e.cfg.FetchWidth; i++ {
		if e.count >= e.rob.size() || e.rsCount >= e.cfg.Window {
			e.stats.RenameStalls++
			e.cycleRenameStalled = true
			return
		}
		if e.fetchPos == e.fetchLen {
			us, ds, base := e.depSrc.NextBatchRef()
			if len(us) == 0 {
				// Sources are endless by contract; running dry would desync
				// the side-car from the rename count.
				panic("ooo: dep batch source ran dry")
			}
			e.fetchRefU, e.fetchRefD = us, ds
			e.fetchLen, e.fetchPos, e.fetchStoreBase = len(us), 0, base
		}
		j := e.fetchPos
		e.fetchPos++
		u := &e.fetchRefU[j]
		e.renameDep(u, &e.fetchRefD[j])
		if u.Kind == uop.Branch && u.Mispredicted {
			e.stats.BranchMispredicts++
			e.awaitingBranch = true
			return
		}
	}
}

// renameDep allocates and links one uop using its side-car entry. cnt is
// the in-flight population before this uop: in-flight entries occupy window
// positions 0..cnt-1 (head-relative), so a producer db positions back in
// the stream is in flight iff db <= cnt, at slot robIdx(cnt-db) — stream
// distance equals window distance because rename and retire are both in
// order. A saturated delta compares as retired, which is exact under the
// RenamePool bound setSource enforces.
func (e *Engine) renameDep(u *uop.UOp, d *uop.Dep) {
	idx := e.robIdx(e.count)
	cnt := e.count
	e.count++
	r := &e.rob
	r.clearSlot(idx, *u)
	e.rsCount++

	if db := int(d.Src1Back); db != 0 && db <= cnt {
		p := int32(e.robIdx(cnt - db))
		r.src1Prod[idx], r.src1Seq[idx] = p, r.seq[p]
	} else {
		r.src1Prod[idx], r.src1Seq[idx] = -1, 0
	}
	if db := int(d.Src2Back); db != 0 && db <= cnt {
		p := int32(e.robIdx(cnt - db))
		r.src2Prod[idx], r.src2Seq[idx] = p, r.seq[p]
	} else {
		r.src2Prod[idx], r.src2Seq[idx] = -1, 0
	}
	if u.Kind == uop.Branch && u.Mispredicted {
		r.flags[idx] |= fBlockingBranch
	}

	switch u.Kind {
	case uop.STA:
		pos := e.mobEnsure(u.StoreID)
		e.mob.ip[pos] = u.IP
		e.mob.addr[pos] = u.Addr
		e.mob.size[pos] = int32(u.Size)
		e.mob.flags[pos] |= mStaSeen
		// An STA arriving after younger stores were already scanned past
		// (its record was gap-filled by mobEnsure) may make a previously
		// ignorable id blocking: drag the completed-store watermarks back
		// below it so the ordering queries re-examine it.
		if u.StoreID < e.staDoneTo {
			e.staDoneTo = u.StoreID
		}
		if u.StoreID < e.allDoneTo {
			e.allDoneTo = u.StoreID
		}
		if e.cfg.Barrier != nil && e.cfg.Barrier.ShouldBarrier(u.IP) {
			e.mob.flags[pos] |= mBarrier
		}
	case uop.STD:
		pos := e.mobEnsure(u.StoreID)
		e.mob.flags[pos] |= mStdSeen
	case uop.Load:
		if e.fetchStoreBase >= 0 {
			r.olderStores[idx] = e.fetchStoreBase + int64(d.LastStore)
		} else {
			r.olderStores[idx] = e.lastStoreID()
		}
		r.ipHash[idx] = d.IPHash
		r.pred[idx] = e.predictCollision(u.IP)
	}

	e.linkDeps(int32(idx))
}

func (e *Engine) rename(u uop.UOp) {
	idx := e.robIdx(e.count)
	e.count++
	r := &e.rob
	r.clearSlot(idx, u)
	e.rsCount++

	r.src1Prod[idx], r.src1Seq[idx] = e.lookupProducer(u.Src1)
	r.src2Prod[idx], r.src2Seq[idx] = e.lookupProducer(u.Src2)
	if u.Dst != uop.NoReg {
		e.regProd[u.Dst] = int32(idx)
		e.regSeq[u.Dst] = u.Seq
	}
	if u.Kind == uop.Branch && u.Mispredicted {
		r.flags[idx] |= fBlockingBranch
	}

	switch u.Kind {
	case uop.STA:
		pos := e.mobEnsure(u.StoreID)
		e.mob.ip[pos] = u.IP
		e.mob.addr[pos] = u.Addr
		e.mob.size[pos] = int32(u.Size)
		e.mob.flags[pos] |= mStaSeen
		// An STA arriving after younger stores were already scanned past
		// (its record was gap-filled by mobEnsure) may make a previously
		// ignorable id blocking: drag the completed-store watermarks back
		// below it so the ordering queries re-examine it.
		if u.StoreID < e.staDoneTo {
			e.staDoneTo = u.StoreID
		}
		if u.StoreID < e.allDoneTo {
			e.allDoneTo = u.StoreID
		}
		if e.cfg.Barrier != nil && e.cfg.Barrier.ShouldBarrier(u.IP) {
			e.mob.flags[pos] |= mBarrier
		}
	case uop.STD:
		pos := e.mobEnsure(u.StoreID)
		e.mob.flags[pos] |= mStdSeen
	case uop.Load:
		r.olderStores[idx] = e.lastStoreID()
		r.ipHash[idx] = uop.HashIP(u.IP)
		r.pred[idx] = e.predictCollision(u.IP)
	}

	e.linkDeps(int32(idx))
}

// lookupProducer resolves a source register to its in-flight producer.
func (e *Engine) lookupProducer(r uop.Reg) (int32, int64) {
	if r == uop.NoReg {
		return -1, 0
	}
	idx := e.regProd[r]
	if idx < 0 {
		return -1, 0
	}
	u := &e.rob.u[idx]
	if e.rob.flags[idx]&fValid == 0 || u.Seq != e.regSeq[r] || u.Dst != r {
		return -1, 0 // producer already retired
	}
	return idx, u.Seq
}

// predictCollision routes the per-load rename prediction through the
// devirtualized fast path when the built-in policy is active.
func (e *Engine) predictCollision(ip uint64) memdep.Prediction {
	if p := e.defPol; p != nil {
		return p.PredictCollision(ip)
	}
	return e.policy.PredictCollision(ip)
}
