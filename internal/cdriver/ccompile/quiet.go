package ccompile

import (
	"math"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/ctoken"
	"repro/internal/hw"
)

// Quiescence fast-forward: a superblock loop whose steady-state
// iteration only re-reads device ports that nothing will change skips
// those iterations in O(1) instead of simulating every re-read.
//
// A loop is quiet when its body holds only `if (c) return ...;` and
// `if (c) break;` statements (no else), every such c is built from
// inb/inw/inl reads of loop-invariant ports, literals, constant macros,
// invariant locals and pure integer operators, and its condition is
// either such an expression or `counter REL invariant`, where the post
// is `counter++` or `counter--` on a local. A quiet iteration that runs
// through has taken no exit, so the values its reads returned decided
// nothing but "go on"; while the devices promise (hw.Stable) that those
// reads keep returning the same values, every following iteration runs
// the same path, charges the same steps and makes the same number of
// reads. The only state they change is the counter, the step count,
// the clock and the bus access count — all of which advance by a fixed
// amount per iteration.
//
// Lean iterations of a quiet loop therefore query the window of every
// read before they run. If the iteration runs through, its charge c and
// read count a are measured, and k further iterations apply at once:
// the counter moves by k·delta, kernel.StepN(k·c) charges the steps and
// ticks the devices in one batch, and Bus.CountReads(k·a) accounts for
// the reads. k is the largest count for which every skipped read falls
// strictly before the window's end, the loop condition stays true, the
// watchdog does not trip and the counter does not wrap its storage
// type; the iterations left over run as usual, so a runaway loop still
// trips on exactly budget+1 steps. An iteration whose clock moved by
// anything other than its charge (per-access latency) never skips, and
// the bus refuses every window while an injector is armed or tracing is
// on. Coverage needs no care: lean iterations only run after the
// careful first one covered every line a steady-state iteration adds.

// quietRead is one port read of a quiet loop's iteration: the port's
// pure evaluator and the access width.
type quietRead struct {
	port  func(st *state, fr []Value) (int64, bool)
	width hw.AccessWidth
}

// quietLoop is the compile-time proof that a superblock loop is quiet.
type quietLoop struct {
	reads []quietRead
	// counter is the frame slot the post steps by delta each iteration
	// (-1 for a loop without a post); lo and hi bound its storage type.
	counter int
	delta   int64
	lo, hi  int64
	// rel is the operator of a `counter REL bound` loop condition, 0
	// when the condition is a quiet expression or absent.
	rel   ctoken.Kind
	bound fop
}

// quietOf returns the proof that an eligible loop is quiet, or nil.
// The proof is built on the stack and copied out only for a quiet loop:
// an incremental patch re-runs this for every loop of the mutated
// function on every boot.
func (c *compiler) quietOf(cond cast.Expr, post, body cast.Stmt) *quietLoop {
	q := quietLoop{counter: -1}
	if post != nil {
		inc, ok := post.(*cast.IncDecStmt)
		if !ok {
			return nil
		}
		ls, ok := c.lookupLocal(inc.X.Name)
		if !ok {
			return nil
		}
		q.counter, q.delta = ls.idx, 1
		if inc.Op == ctoken.MinusMinus {
			q.delta = -1
		}
		q.lo, q.hi = storageRange(ls.typ)
	}
	stmts := []cast.Stmt{body}
	if b, ok := body.(*cast.Block); ok {
		stmts = b.Stmts
	}
	for _, s := range stmts {
		is, ok := s.(*cast.IfStmt)
		if !ok || is.Else != nil || !exits(is.Then) || !c.quietExpr(is.Cond, &q, true) {
			return nil
		}
	}
	if cond != nil && !c.counterBound(cond, &q) && !c.quietExpr(cond, &q, true) {
		return nil
	}
	proof := q
	return &proof
}

// exits reports whether s is a return or break, bare or as the only
// statement of a block: a quiet loop's if fires only to leave the loop.
func exits(s cast.Stmt) bool {
	if b, ok := s.(*cast.Block); ok && len(b.Stmts) == 1 {
		s = b.Stmts[0]
	}
	switch s.(type) {
	case *cast.ReturnStmt, *cast.BreakStmt:
		return true
	}
	return false
}

// quietExpr reports whether x is a quiet condition, recording its port
// reads in q. Reads are admitted only when reads is set: a port operand
// is itself a read-free quiet expression.
func (c *compiler) quietExpr(x cast.Expr, q *quietLoop, reads bool) bool {
	switch x := x.(type) {
	case *cast.IntLit:
		return true
	case *cast.Ident:
		o, ok := c.inlineOperand(x)
		return ok && (o.slot < 0 || o.slot != q.counter)
	case *cast.BinaryExpr:
		return intBinOp(x.Op) != nil && c.quietExpr(x.X, q, reads) && c.quietExpr(x.Y, q, reads)
	case *cast.CallExpr:
		var width hw.AccessWidth
		switch x.Name {
		case "inb":
			width = hw.Width8
		case "inw":
			width = hw.Width16
		case "inl":
			width = hw.Width32
		default:
			return false
		}
		if _, isFunc := c.funcIdx[x.Name]; isFunc || !reads || len(x.Args) != 1 ||
			!c.quietExpr(x.Args[0], q, false) {
			return false
		}
		port := c.pureIntOf(x.Args[0])
		if port == nil {
			return false
		}
		q.reads = append(q.reads, quietRead{port: port, width: width})
		return true
	}
	return false
}

// counterBound recognises a `counter REL bound` loop condition whose
// bound is a literal, constant macro or invariant local, recording it
// in q.
func (c *compiler) counterBound(cond cast.Expr, q *quietLoop) bool {
	b, ok := cond.(*cast.BinaryExpr)
	if !ok || q.counter < 0 {
		return false
	}
	switch b.Op {
	case ctoken.Lt, ctoken.Le, ctoken.Gt, ctoken.Ge, ctoken.Eq, ctoken.Ne:
	default:
		return false
	}
	xo, xok := c.inlineOperand(b.X)
	yo, yok := c.inlineOperand(b.Y)
	if !xok || !yok || xo.slot != q.counter || yo.slot == q.counter {
		return false
	}
	q.rel, q.bound = b.Op, yo
	return true
}

// storageRange is the value range of a local's storage type: the range
// inside which truncFn is the identity.
func storageRange(t cast.CType) (lo, hi int64) {
	switch t.Kind {
	case cast.TypeU8:
		return 0, math.MaxUint8
	case cast.TypeU16:
		return 0, math.MaxUint16
	case cast.TypeU32:
		return 0, math.MaxUint32
	case cast.TypeS8:
		return math.MinInt8, math.MaxInt8
	case cast.TypeS16:
		return math.MinInt16, math.MaxInt16
	case cast.TypeInt, cast.TypeS32:
		return math.MinInt32, math.MaxInt32
	}
	return math.MinInt64, math.MaxInt64
}

// quietWindow is one lean iteration's measurement: the clock, step and
// bus access counts it started from, and the tick before which every
// read it makes is promised stable. The zero value measures nothing.
type quietWindow struct {
	ok     bool
	t0, a0 uint64
	until  uint64
	s0     int64
}

// open queries the window of every read the coming iteration makes;
// w.ok is false when the window is already over. ok is false when some
// read is not stable, and the caller then stops asking for the rest of
// the loop: nothing inside it writes a port, so only rare mutant shapes
// (a loop draining a data port) would ever get another answer.
func (q *quietLoop) open(st *state, fr []Value) (w quietWindow, ok bool) {
	clk := st.kern.Clock()
	if clk == nil || st.bus == nil {
		return w, false
	}
	now := clk.Now()
	until := hw.Forever
	for _, r := range q.reads {
		p, ok := r.port(st, fr)
		if !ok {
			return w, false
		}
		u, ok := st.bus.StableUntil(hw.Port(p), r.width, now)
		if !ok {
			return w, false
		}
		until = min(until, u)
	}
	if until <= now {
		return w, true
	}
	return quietWindow{ok: true, t0: now, a0: st.bus.Accesses(), until: until, s0: st.kern.Steps()}, true
}

// skip fast-forwards the iterations after one that ran through under
// window w (see the file comment for the rules on k).
func (q *quietLoop) skip(st *state, fr []Value, w quietWindow) error {
	c := st.kern.Steps() - w.s0
	if c <= 0 || st.kern.Clock().Now()-w.t0 != uint64(c) {
		return nil
	}
	k := (st.kern.Budget() - st.kern.Steps()) / c
	if w.until != hw.Forever {
		// The reads of skipped iteration j fall in [t0+j·c, t0+(j+1)·c].
		k = min(k, int64(min((w.until-w.t0-1)/uint64(c), math.MaxInt64))-1)
	}
	if q.counter >= 0 {
		k = min(k, q.counterRoom(st, fr))
	}
	if k <= 0 {
		return nil
	}
	if q.counter >= 0 {
		fr[q.counter] = intValue(fr[q.counter].I + k*q.delta)
	}
	st.bus.CountReads(uint64(k) * (st.bus.Accesses() - w.a0))
	st.quietSkipped += k * c
	return st.kern.StepN(k * c)
}

// counterRoom is how many more iterations the counter can step without
// wrapping its storage type or turning a `counter REL bound` condition
// false.
func (q *quietLoop) counterRoom(st *state, fr []Value) int64 {
	t := fr[q.counter].I
	room := satSub(q.hi, t)
	if q.delta < 0 {
		room = satSub(t, q.lo)
	}
	if q.rel == 0 {
		return room
	}
	n, ok := q.bound.read(st, fr)
	if !ok {
		return 0
	}
	// flip is the first further iteration whose condition is false.
	flip := int64(math.MaxInt64)
	up := q.delta > 0
	switch q.rel {
	case ctoken.Lt:
		if up {
			flip = satSub(n, t)
		}
	case ctoken.Le:
		if up {
			flip = satInc(satSub(n, t))
		}
	case ctoken.Gt:
		if !up {
			flip = satSub(t, n)
		}
	case ctoken.Ge:
		if !up {
			flip = satInc(satSub(t, n))
		}
	case ctoken.Ne:
		if up && n > t {
			flip = satSub(n, t)
		} else if !up && n < t {
			flip = satSub(t, n)
		}
	case ctoken.Eq:
		flip = 1
	}
	return min(room, flip-1)
}

// satSub is a - b for a ≥ b, saturated at math.MaxInt64.
func satSub(a, b int64) int64 {
	if d := a - b; d >= 0 {
		return d
	}
	return math.MaxInt64
}

// satInc is x + 1 saturated at math.MaxInt64.
func satInc(x int64) int64 {
	if x == math.MaxInt64 {
		return x
	}
	return x + 1
}
