package ccompile

import (
	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/ctoken"
)

// Loop superblocks: a while/for loop whose body holds no direct break,
// continue or return compiles to a single closure that runs the whole
// loop internally — threaded code instead of one closure dispatch per
// statement per iteration.
//
// Three specializations carry the win on the driver corpus' hot shape,
// the bounded poll (`for (t = 0; t < TIMEOUT; t++) { if (inb(p) & MASK)
// return 0; }`):
//
//   - the loop condition compiles to a predFn returning a bare bool
//     (specialized for fused comparisons like `t < TIMEOUT`), so the
//     per-iteration test pays no Value boxing;
//   - the body runs as segments — a maximal run of simple statements as
//     its cores, a control statement as its body — with no
//     per-statement closure hop;
//   - the per-iteration watchdog charges that sequential execution
//     makes back to back with only coverage adds in between batch into
//     one kernel.StepN call.
//
// The cores and bodies are the ones every other statement position
// runs (see lower), so careful and lean iterations differ only in the
// statement-line coverage adds and the batching of the charges around
// them. Iterations run in "careful" mode — every statement line covered
// and the exact sequential charge pattern — until one iteration has
// executed every segment; from then on the (idempotent) covered-line
// set already holds every statement line a steady-state iteration can
// add, and lean iterations drop those adds while batching the charges
// they stood between. StepN clamps to the budget so watchdog-tripped
// boots land on exactly budget+1 steps, and a failing batched charge
// skips the statements it dominates exactly as the sequential charges
// would. Loops with a direct jump in the body, and do/while loops, run
// on the plain loop driver. Lean iterations of a quiet poll loop may
// also fast-forward over iterations that would re-read unchanging
// ports (quiet.go).

// predFn evaluates a loop condition to a bare bool.
type predFn func(st *state, fr []Value) (bool, error)

// isJump reports whether s is a break, continue or return: the simple
// statements that do not lower to a core.
func isJump(s cast.Stmt) bool {
	switch s.(type) {
	case *cast.BreakStmt, *cast.ContinueStmt, *cast.ReturnStmt:
		return true
	}
	return false
}

// loopEligible reports whether a loop compiles to a superblock: its post
// (if any) lowers to a core, and no statement of its body is a direct
// jump — a jump's flow is unconditional, so such a loop never reaches a
// steady state worth specializing.
func loopEligible(body, post cast.Stmt) bool {
	if post != nil && !lowersToCore(post) {
		return false
	}
	stmts := []cast.Stmt{body}
	if b, ok := body.(*cast.Block); ok {
		stmts = b.Stmts
	}
	for _, s := range stmts {
		if isJump(s) {
			return false
		}
	}
	return true
}

// predOf compiles a loop condition to a specialized bool predicate for
// steady-state iterations, or nil when only the careful condition
// closure applies. Specializations are restricted to shapes whose
// coverage adds are the same fixed lines every evaluation — all already
// in the covered set after the first careful condition evaluation — so
// dropping them is unobservable. A failing macro guard evaluates the
// careful closure instead, whose coverage adds and faults are exact.
func (c *compiler) predOf(x cast.Expr, careful exprFn) predFn {
	if b, ok := x.(*cast.BinaryExpr); ok {
		if f := intBinOp(b.Op); f != nil {
			xo, xok := c.inlineOperand(b.X)
			yo, yok := c.inlineOperand(b.Y)
			if xok && yok {
				// The `t < TIMEOUT` shape: both operands read inline.
				return func(st *state, fr []Value) (bool, error) {
					a, aok := xo.read(st, fr)
					b, bok := yo.read(st, fr)
					if !aok || !bok {
						return truthy(careful(st, fr))
					}
					return f(a, b) != 0, nil
				}
			}
			// The `w < (len + 1) / 2` shape: pure operand evaluators.
			xp, yp := c.pureIntOf(b.X), c.pureIntOf(b.Y)
			if xp == nil || yp == nil {
				return nil
			}
			return func(st *state, fr []Value) (bool, error) {
				a, aok := xp(st, fr)
				b, bok := yp(st, fr)
				if !aok || !bok {
					return truthy(careful(st, fr))
				}
				return f(a, b) != 0, nil
			}
		}
	}
	p := c.pureIntOf(x)
	if p == nil {
		return nil
	}
	return func(st *state, fr []Value) (bool, error) {
		v, ok := p(st, fr)
		if !ok {
			return truthy(careful(st, fr))
		}
		return v != 0, nil
	}
}

// pureIntOf compiles an expression into an error-free inline evaluator,
// or nil when it cannot: fused operands (locals, literals, constant
// macros) and pure integer arithmetic, comparison and `!` over them
// qualify. Division and modulo are admitted only by a positive literal
// divisor (matching applyBin without its divide-by-zero fault); globals
// and calls never qualify (mutation, side effects). ok is false when a
// constant macro's guard fails. Every coverage line in a qualifying
// subtree is fixed at compile time, so the first careful evaluation of
// the enclosing condition covers them all.
func (c *compiler) pureIntOf(x cast.Expr) func(st *state, fr []Value) (int64, bool) {
	if o, ok := c.inlineOperand(x); ok {
		return func(st *state, fr []Value) (int64, bool) { return o.read(st, fr) }
	}
	switch x := x.(type) {
	case *cast.UnaryExpr:
		if x.Op != ctoken.Not {
			return nil
		}
		if inner := c.pureIntOf(x.X); inner != nil {
			return func(st *state, fr []Value) (int64, bool) {
				v, ok := inner(st, fr)
				return b2i(v == 0), ok
			}
		}

	case *cast.BinaryExpr:
		f := intBinOp(x.Op)
		if x.Op == ctoken.Div || x.Op == ctoken.Mod {
			if lit, ok := x.Y.(*cast.IntLit); !ok || lit.Value <= 0 {
				return nil
			}
			f = func(a, b int64) int64 { return a / b }
			if x.Op == ctoken.Mod {
				f = func(a, b int64) int64 { return a % b }
			}
		}
		if f == nil {
			return nil
		}
		xf, yf := c.pureIntOf(x.X), c.pureIntOf(x.Y)
		if xf == nil || yf == nil {
			return nil
		}
		return func(st *state, fr []Value) (int64, bool) {
			a, aok := xf(st, fr)
			b, bok := yf(st, fr)
			return f(a, b), aok && bok
		}
	}
	return nil
}

// truthy is a careful condition evaluation's result as a bool.
func truthy(v Value, err error) (bool, error) { return err == nil && v.Truthy(), err }

// superSeg is one per-iteration unit of a superblock body: a maximal
// run of simple statements, or one control statement's line and body.
// Each segment costs exactly one watchdog charge, as in seq.
type superSeg struct {
	run  run
	line int
	ctl  stmtFn // nil for a run
}

// superBlock is a compiled superblock loop body.
type superBlock struct {
	// blockLine is the body block's own coverage line, -1 for a bare
	// statement body.
	blockLine int
	segs      []superSeg
	// headN is the watchdog charge count a lean iteration batches up
	// front: the block charge (if the body is a block) plus the first
	// segment's charge.
	headN int64
}

// superBodyOf compiles an eligible loop body into segments.
func (c *compiler) superBodyOf(body cast.Stmt) *superBlock {
	sb := &superBlock{blockLine: -1}
	stmts := []cast.Stmt{body}
	if b, ok := body.(*cast.Block); ok {
		sb.blockLine = c.line(b.Pos())
		c.pushScope()
		defer c.popScope()
		stmts = b.Stmts
	}
	var r run
	flush := func() {
		if len(r.cores) == 0 {
			return
		}
		if sb.blockLine >= 0 {
			// Count the fused run like seq would.
			c.stats.Blocks++
			c.stats.FusedStmts += int64(len(r.cores))
		}
		c.stats.SuperStmts += int64(len(r.cores))
		sb.segs = append(sb.segs, superSeg{run: r})
		r = run{}
	}
	for _, s := range stmts {
		line, core, body := c.lower(s)
		if core != nil {
			r.add(line, core)
			continue
		}
		flush()
		sb.segs = append(sb.segs, superSeg{line: line, ctl: body})
	}
	flush()
	sb.headN = 1
	if sb.blockLine >= 0 && len(sb.segs) > 0 {
		sb.headN = 2
	}
	return sb
}

// carefulIter runs one iteration of the body with the block form's
// exact sequential charges and coverage adds. The returned flow is the
// loop-level outcome (flowNormal proceeds to post/end, flowContinue
// already folded into it); done reports that every segment completed,
// licensing lean iterations from the next one on.
func (sb *superBlock) carefulIter(st *state, fr []Value) (fl flow, v Value, done bool, err error) {
	if err := st.kern.Step(); err != nil { // the body statement's charge
		return flowNormal, voidValue, false, err
	}
	if sb.blockLine >= 0 {
		st.cov.Add(sb.blockLine)
	}
	for i := range sb.segs {
		if i > 0 || sb.blockLine >= 0 {
			if err := st.kern.Step(); err != nil { // the segment's charge
				return flowNormal, voidValue, false, err
			}
		}
		s := &sb.segs[i]
		if s.ctl == nil {
			for j, f := range s.run.cores {
				st.cov.Add(s.run.lines[j])
				if err := f(st, fr); err != nil {
					return flowNormal, voidValue, false, err
				}
			}
			continue
		}
		st.cov.Add(s.line)
		fl, v, err := s.ctl(st, fr)
		if err != nil {
			return flowNormal, voidValue, false, err
		}
		switch fl {
		case flowBreak:
			return flowBreak, voidValue, false, nil
		case flowReturn:
			return flowReturn, v, false, nil
		case flowContinue:
			return flowNormal, voidValue, false, nil
		}
	}
	return flowNormal, voidValue, true, nil
}

// leanIter runs one steady-state iteration: the head charges batched
// into one StepN, the same segments with their statement-line adds
// dropped.
func (sb *superBlock) leanIter(st *state, fr []Value, head int64) (flow, Value, error) {
	if err := st.kern.StepN(head); err != nil {
		return flowNormal, voidValue, err
	}
	for i := range sb.segs {
		if i > 0 {
			if err := st.kern.Step(); err != nil { // the segment's charge
				return flowNormal, voidValue, err
			}
		}
		s := &sb.segs[i]
		if s.ctl == nil {
			for _, f := range s.run.cores {
				if err := f(st, fr); err != nil {
					return flowNormal, voidValue, err
				}
			}
			continue
		}
		fl, v, err := s.ctl(st, fr)
		if err != nil {
			return flowNormal, voidValue, err
		}
		if fl != flowNormal {
			if fl == flowContinue {
				fl = flowNormal
			}
			return fl, v, nil
		}
	}
	return flowNormal, voidValue, nil
}

// superLoop compiles an eligible loop (see loop, which has compiled its
// init and careful condition) to a superblock closure. The init runs
// once in statement position; cond, body and post run inside the
// closure, with the post's charge/post/charge tail batched when the
// post is a pure local update.
func (c *compiler) superLoop(initFn stmtFn, cond cast.Expr, condFn exprFn, post, body cast.Stmt) stmtFn {
	pred := predFn(func(*state, []Value) (bool, error) { return true, nil })
	if cond != nil {
		if pred = c.predOf(cond, condFn); pred == nil {
			// Full coverage adds and side effects (port reads in poll
			// conditions), just the Value boxing stripped.
			pred = func(st *state, fr []Value) (bool, error) { return truthy(condFn(st, fr)) }
		}
	}
	sb := c.superBodyOf(body)
	postLine := -1
	var postCore coreFn
	purePost := false
	if post != nil {
		postLine, postCore, _ = c.lower(post)
		// A post that increments a local slot touches no device, kernel
		// or coverage state, so it commutes with its surrounding watchdog
		// charges and the post + end charges batch into one StepN after
		// it. Anything else keeps sequential charges.
		if id, ok := post.(*cast.IncDecStmt); ok {
			_, purePost = c.lookupLocal(id.X.Name)
		}
		c.stats.SuperStmts++
	}
	c.stats.Superblocks++
	quiet := c.quietOf(cond, post, body)
	head := sb.headN
	if len(sb.segs) == 0 && postCore == nil {
		head++ // fold the end charge: nothing runs between the charges
	}
	return func(st *state, fr []Value) (flow, Value, error) {
		if initFn != nil {
			if fl, v, err := initFn(st, fr); err != nil || fl != flowNormal {
				return fl, v, err
			}
		}
		ok := true
		if condFn != nil {
			// The first condition evaluation is always the careful closure;
			// it covers every fixed line a specialized pred may skip.
			cond, err := condFn(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			ok = cond.Truthy()
		}
		careful := true
		asking := quiet != nil // query read windows before lean iterations
		for ok {
			var err error
			var w quietWindow
			if careful {
				fl, v, done, err := sb.carefulIter(st, fr)
				if err != nil {
					return flowNormal, voidValue, err
				}
				if fl == flowBreak {
					return flowNormal, voidValue, nil
				}
				if fl == flowReturn {
					return flowReturn, v, nil
				}
				if postCore != nil {
					// Sequential post: charge, cover, update, as the post
					// in statement position would.
					if err := st.kern.Step(); err != nil {
						return flowNormal, voidValue, err
					}
					st.cov.Add(postLine)
					if err := postCore(st, fr); err != nil {
						return flowNormal, voidValue, err
					}
				}
				if err := st.kern.Step(); err != nil { // end-of-iteration charge
					return flowNormal, voidValue, err
				}
				careful = !done
			} else {
				if asking {
					w, asking = quiet.open(st, fr)
				}
				fl, v, err := sb.leanIter(st, fr, head)
				if err != nil {
					return flowNormal, voidValue, err
				}
				if fl == flowBreak {
					return flowNormal, voidValue, nil
				}
				if fl == flowReturn {
					return flowReturn, v, nil
				}
				switch {
				case postCore == nil:
					if len(sb.segs) > 0 { // else folded into head
						if err := st.kern.Step(); err != nil { // end-of-iteration charge
							return flowNormal, voidValue, err
						}
					}
				case purePost:
					// The post commutes with its charges: run it, then batch
					// the post + end charges in one StepN.
					if err := postCore(st, fr); err != nil {
						return flowNormal, voidValue, err
					}
					if err := st.kern.StepN(2); err != nil {
						return flowNormal, voidValue, err
					}
				default:
					if err := st.kern.Step(); err != nil { // the post's charge
						return flowNormal, voidValue, err
					}
					if err := postCore(st, fr); err != nil {
						return flowNormal, voidValue, err
					}
					if err := st.kern.Step(); err != nil { // end-of-iteration charge
						return flowNormal, voidValue, err
					}
				}
			}
			ok, err = pred(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			if w.ok && ok {
				if err := quiet.skip(st, fr, w); err != nil {
					return flowNormal, voidValue, err
				}
			}
		}
		return flowNormal, voidValue, nil
	}
}
