package ccompile

import (
	"fmt"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/cinterp"
	"repro/internal/cdriver/ctoken"
	"repro/internal/devil/codegen"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// globalRef is the compile-time view of one file-scope variable.
type globalRef struct {
	ord  int // declaration order (for the declsReady guard)
	slot int
	typ  cast.CType
}

// macroRef is the compile-time view of one macro.
type macroRef struct {
	ord  int
	decl *cast.MacroDecl
}

// localSlot is the compile-time view of one local variable.
type localSlot struct {
	idx int
	typ cast.CType
}

// compiler holds the one-pass compilation state.
type compiler struct {
	prog    *cast.Program
	stubs   *codegen.Stubs
	varSigs map[string]codegen.VarSig
	// bus is the machine's I/O space, bound at compile time so port-I/O
	// sites can batch their bus resolution (nil in unit tests that
	// compile without a machine).
	bus *hw.Bus
	// domLine is the source line the innermost enclosing statement
	// closure unconditionally covers before any sub-expression runs
	// (-1 outside statements). Expression closures on that
	// line skip their own redundant coverage add: line coverage is a
	// set, so re-adding a line the dominating statement already added
	// is unobservable. Compile-time state only.
	domLine int
	// stats counts what the fusion pass produced.
	stats BlockStats

	funcIdx   map[string]int
	funcs     []*cfunc
	funcDecls []*cast.FuncDecl

	globalIdx   map[string]globalRef
	globalTypes []cast.CType

	macros     map[string]macroRef
	macroStack []string
	// onMacro, when non-nil, is invoked for every macro inlined at a use
	// site (including macros reached through nested expansion) — the
	// incremental compiler records which compilation units must be
	// recompiled when a macro body mutates.
	onMacro func(name string)

	// Per-function compile state: lexical scopes mapping names to frame
	// slots, and the slot high-water mark.
	scopes []map[string]localSlot
	nslots int

	maxSlots int
	maxLine  int
	err      error
}

// line records a source line for coverage sizing and returns it.
func (c *compiler) line(pos ctoken.Pos) int {
	if pos.Line > c.maxLine {
		c.maxLine = pos.Line
	}
	return pos.Line
}

func (c *compiler) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *compiler) pushScope() { c.scopes = append(c.scopes, make(map[string]localSlot)) }
func (c *compiler) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

// declareLocal assigns the next frame slot to a name in the top scope.
func (c *compiler) declareLocal(name string, typ cast.CType) int {
	idx := c.nslots
	c.nslots++
	c.scopes[len(c.scopes)-1][name] = localSlot{idx: idx, typ: typ}
	return idx
}

// lookupLocal resolves a name through the lexical scope chain.
func (c *compiler) lookupLocal(name string) (localSlot, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s, true
		}
	}
	return localSlot{}, false
}

// compileFunc fills in a pre-registered cfunc.
func (c *compiler) compileFunc(f *cfunc, d *cast.FuncDecl) {
	c.scopes = c.scopes[:0]
	c.nslots = 0
	c.pushScope()
	for _, p := range d.Params {
		c.declareLocal(p.Name, p.Type)
		f.params = append(f.params, p.Type)
	}
	f.body = c.blockBody(d.Body)
	c.popScope()
	f.nslots = c.nslots
	if c.nslots > c.maxSlots {
		c.maxSlots = c.nslots
	}
}

// blockBody compiles a block's statements under a fresh lexical scope.
// The caller decides whether the block itself charges a watchdog step
// (statement blocks do, function bodies do not — as in the interpreter).
func (c *compiler) blockBody(b *cast.Block) []stmtFn {
	c.pushScope()
	out := c.seq(b.Stmts)
	c.popScope()
	return out
}

// seq compiles a statement list with basic-block step accounting: one
// watchdog charge at the head of every maximal run of simple statements
// (cinterp.SimpleStmt is the shared fusion rule), one per control-flow
// statement.
func (c *compiler) seq(stmts []cast.Stmt) []stmtFn {
	var out []stmtFn
	for i := 0; i < len(stmts); {
		j := i
		for j < len(stmts) && cinterp.SimpleStmt(stmts[j]) {
			j++
		}
		if j == i {
			out = append(out, c.stmt(stmts[i]))
			i++
			continue
		}
		out = append(out, c.fuse(stmts[i:j]))
		i = j
	}
	return out
}

// run is a compiled maximal run of simple statements: each statement's
// core beside the source line it covers. Careful execution covers
// lines[i] before running cores[i]; lean superblock iterations run the
// cores alone.
type run struct {
	lines []int
	cores []coreFn
}

func (r *run) add(line int, core coreFn) {
	r.lines = append(r.lines, line)
	r.cores = append(r.cores, core)
}

// fuse folds a maximal run of simple statements into one basic-block
// closure: a single watchdog charge at entry, then each statement's line
// and core in order. A failing charge executes (and covers) none of the
// run. A jump (break, continue, return) ends the run and carries its
// flow out of the block; statements after it compile but can never
// run — exactly the interpreter's execSeq.
func (c *compiler) fuse(stmts []cast.Stmt) stmtFn {
	c.stats.Blocks++
	c.stats.FusedStmts += int64(len(stmts))
	r := run{lines: make([]int, 0, len(stmts)), cores: make([]coreFn, 0, len(stmts))}
	var jumpLine int
	var jump stmtFn
	for _, s := range stmts {
		line, core, body := c.lower(s)
		switch {
		case jump != nil:
		case core != nil:
			r.add(line, core)
		default:
			jumpLine, jump = line, body
		}
	}
	return func(st *state, fr []Value) (flow, Value, error) {
		if err := st.kern.Step(); err != nil {
			return flowNormal, voidValue, err
		}
		for i, f := range r.cores {
			st.cov.Add(r.lines[i])
			if err := f(st, fr); err != nil {
				return flowNormal, voidValue, err
			}
		}
		if jump == nil {
			return flowNormal, voidValue, nil
		}
		st.cov.Add(jumpLine)
		return jump(st, fr)
	}
}

// stmt compiles one statement for statement position (a loop body, an
// if branch, a for init/post, a control statement in a sequence), with
// the interpreter's execStmt semantics: one watchdog step, the
// statement's line, then its core or body.
func (c *compiler) stmt(s cast.Stmt) stmtFn {
	line, core, body := c.lower(s)
	if core != nil {
		return func(st *state, fr []Value) (flow, Value, error) {
			if err := st.kern.Step(); err != nil {
				return flowNormal, voidValue, err
			}
			st.cov.Add(line)
			return flowNormal, voidValue, core(st, fr)
		}
	}
	return func(st *state, fr []Value) (flow, Value, error) {
		if err := st.kern.Step(); err != nil {
			return flowNormal, voidValue, err
		}
		st.cov.Add(line)
		return body(st, fr)
	}
}

// lower compiles one statement without its watchdog charge and without
// its own line's coverage add: the caller (a fused run, statement
// position, a superblock segment) owns both. A simple statement lowers
// to a core, every other kind to a flow-carrying body. While it
// compiles, the statement's line dominates its sub-expressions — every
// caller has covered the line before the statement runs — so
// expression closures on that line drop their own redundant adds.
func (c *compiler) lower(s cast.Stmt) (line int, core coreFn, body stmtFn) {
	line = c.line(s.Pos())
	prevDom := c.domLine
	c.domLine = line
	defer func() { c.domLine = prevDom }()
	if lowersToCore(s) {
		return line, c.simpleCore(s), nil
	}
	return line, nil, c.ctlBody(s)
}

// lowersToCore reports whether s is one of the simple statement kinds
// simpleCore lowers to a core: declaration, expression, assignment,
// increment. The other simple statements, the jumps, carry flow.
func lowersToCore(s cast.Stmt) bool {
	switch s.(type) {
	case *cast.DeclStmt, *cast.ExprStmt, *cast.AssignStmt, *cast.IncDecStmt:
		return true
	}
	return false
}

// compoundBase maps each compound assignment operator to the binary
// operator whose intBinOp implementation it applies.
var compoundBase = map[ctoken.Kind]ctoken.Kind{
	ctoken.OrAssign: ctoken.Or, ctoken.AndAssign: ctoken.And, ctoken.XorAssign: ctoken.Xor,
	ctoken.ShlAssign: ctoken.Shl, ctoken.ShrAssign: ctoken.Shr,
	ctoken.AddAssign: ctoken.Add, ctoken.SubAssign: ctoken.Sub,
}

// simpleCore is the one lowering of the statement kinds lowersToCore
// admits to their cores. Evaluation order and faults are the
// interpreter's: an initialiser compiles before its name is visible, an
// assignment evaluates its right-hand side before resolving its target.
// Local targets (every loop induction variable) update their frame slot
// directly, with storage truncation resolved at compile time — no
// load/store closure pair on the hot path.
func (c *compiler) simpleCore(s cast.Stmt) coreFn {
	switch s := s.(type) {
	case *cast.DeclStmt:
		d := s.Decl
		if d.Init == nil {
			slot, def := c.declareLocal(d.Name, d.Type), defaultValue(d.Type)
			return func(st *state, fr []Value) error {
				fr[slot] = def
				return nil
			}
		}
		initFn := c.expr(d.Init) // compiled before the name is visible
		slot, typ := c.declareLocal(d.Name, d.Type), d.Type
		return func(st *state, fr []Value) error {
			iv, err := initFn(st, fr)
			if err != nil {
				return err
			}
			fr[slot] = cinterp.Truncate(typ, iv)
			return nil
		}

	case *cast.ExprStmt:
		xf := c.expr(s.X)
		return func(st *state, fr []Value) error {
			_, err := xf(st, fr)
			return err
		}

	case *cast.AssignStmt:
		rhsFn := c.expr(s.RHS)
		var opf func(a, b int64) int64 // nil for plain assignment
		if s.Op != ctoken.Assign {
			if opf = intBinOp(compoundBase[s.Op]); opf == nil {
				// The parser admits only the eight assignment operators.
				c.fail(fmt.Errorf("%w: assignment operator %s", ErrUnsupported, s.Op))
			}
		}
		if ls, ok := c.lookupLocal(s.LHS.Name); ok {
			slot, tf := ls.idx, truncFn(ls.typ)
			if opf != nil {
				return func(st *state, fr []Value) error {
					rhs, err := rhsFn(st, fr)
					if err != nil {
						return err
					}
					fr[slot] = intValue(tf(opf(fr[slot].I, rhs.I)))
					return nil
				}
			}
			return func(st *state, fr []Value) error {
				rhs, err := rhsFn(st, fr)
				if err != nil {
					return err
				}
				// Direct assignment: Devil values flow through unchanged.
				if fr[slot].Kind == cinterp.ValDevil || rhs.Kind == cinterp.ValDevil {
					fr[slot] = rhs
				} else {
					fr[slot] = intValue(tf(rhs.I))
				}
				return nil
			}
		}
		target := c.lvalue(s.LHS)
		tf := truncFn(target.typ)
		return func(st *state, fr []Value) error {
			rhs, err := rhsFn(st, fr)
			if err != nil {
				return err
			}
			cur, err := target.load(st, fr)
			if err != nil {
				return err
			}
			switch {
			case opf != nil:
				target.store(st, fr, intValue(tf(opf(cur.I, rhs.I))))
			case cur.Kind == cinterp.ValDevil || rhs.Kind == cinterp.ValDevil:
				target.store(st, fr, rhs) // Devil values flow through unchanged
			default:
				target.store(st, fr, intValue(tf(rhs.I)))
			}
			return nil
		}

	case *cast.IncDecStmt:
		delta := int64(1)
		if s.Op == ctoken.MinusMinus {
			delta = -1
		}
		if ls, ok := c.lookupLocal(s.X.Name); ok {
			slot, tf := ls.idx, truncFn(ls.typ)
			return func(st *state, fr []Value) error {
				fr[slot] = intValue(tf(fr[slot].I + delta))
				return nil
			}
		}
		target := c.lvalue(s.X)
		tf := truncFn(target.typ)
		return func(st *state, fr []Value) error {
			cur, err := target.load(st, fr)
			if err != nil {
				return err
			}
			target.store(st, fr, intValue(tf(cur.I+delta)))
			return nil
		}
	}
	return nil
}

// ctlBody lowers every statement kind lowersToCore does not admit to
// its flow-carrying body.
func (c *compiler) ctlBody(s cast.Stmt) stmtFn {
	switch s := s.(type) {
	case *cast.Block:
		body := c.blockBody(s)
		return func(st *state, fr []Value) (flow, Value, error) {
			return runSeq(body, st, fr)
		}

	case *cast.IfStmt:
		condFn := c.expr(s.Cond)
		thenFn := c.stmt(s.Then)
		var elseFn stmtFn
		if s.Else != nil {
			elseFn = c.stmt(s.Else)
		}
		return func(st *state, fr []Value) (flow, Value, error) {
			cond, err := condFn(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			if cond.Truthy() {
				return thenFn(st, fr)
			}
			if elseFn != nil {
				return elseFn(st, fr)
			}
			return flowNormal, voidValue, nil
		}

	case *cast.WhileStmt:
		return c.loop(nil, s.Cond, nil, s.Body)

	case *cast.ForStmt:
		// A for statement is a scope, init or not, as in the interpreter:
		// a declaration body lands in it, not in the enclosing block.
		c.pushScope()
		defer c.popScope()
		return c.loop(s.Init, s.Cond, s.Post, s.Body)

	case *cast.DoWhileStmt:
		bodyFn := c.stmt(s.Body)
		condFn := c.expr(s.Cond)
		return func(st *state, fr []Value) (flow, Value, error) {
			for {
				fl, v, err := bodyFn(st, fr)
				if err != nil {
					return flowNormal, voidValue, err
				}
				if fl == flowBreak {
					break
				}
				if fl == flowReturn {
					return fl, v, nil
				}
				cond, err := condFn(st, fr)
				if err != nil {
					return flowNormal, voidValue, err
				}
				if !cond.Truthy() {
					break
				}
				if err := st.kern.Step(); err != nil {
					return flowNormal, voidValue, err
				}
			}
			return flowNormal, voidValue, nil
		}

	case *cast.SwitchStmt:
		return c.switchStmt(s)

	case *cast.BreakStmt:
		return func(*state, []Value) (flow, Value, error) { return flowBreak, voidValue, nil }

	case *cast.ContinueStmt:
		return func(*state, []Value) (flow, Value, error) { return flowContinue, voidValue, nil }

	case *cast.ReturnStmt:
		if s.X == nil {
			return func(*state, []Value) (flow, Value, error) { return flowReturn, voidValue, nil }
		}
		xf := c.expr(s.X)
		return func(st *state, fr []Value) (flow, Value, error) {
			v, err := xf(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			return flowReturn, v, nil
		}
	}
	// Unknown statement kinds execute as a charged no-op, exactly like
	// the interpreter's execStmt default.
	return func(*state, []Value) (flow, Value, error) { return flowNormal, voidValue, nil }
}

// loop compiles a for loop, and a while loop as a for loop with no init
// and no post. A loop whose body has no direct jump compiles to a
// superblock (superLoop); every other one runs here, as the interpreter
// runs it: the condition, the charged body, the charged post, then the
// back-edge charge.
func (c *compiler) loop(init cast.Stmt, cond cast.Expr, post, body cast.Stmt) stmtFn {
	var initFn stmtFn
	if init != nil {
		initFn = c.stmt(init)
	}
	var condFn exprFn
	if cond != nil {
		condFn = c.expr(cond)
	}
	if loopEligible(body, post) {
		return c.superLoop(initFn, cond, condFn, post, body)
	}
	var postFn stmtFn
	if post != nil {
		postFn = c.stmt(post)
	}
	bodyFn := c.stmt(body)
	return func(st *state, fr []Value) (flow, Value, error) {
		if initFn != nil {
			if fl, v, err := initFn(st, fr); err != nil || fl != flowNormal {
				return fl, v, err
			}
		}
		for {
			if condFn != nil {
				cond, err := condFn(st, fr)
				if err != nil {
					return flowNormal, voidValue, err
				}
				if !cond.Truthy() {
					break
				}
			}
			fl, v, err := bodyFn(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			if fl == flowBreak {
				break
			}
			if fl == flowReturn {
				return fl, v, nil
			}
			if postFn != nil {
				if fl, v, err := postFn(st, fr); err != nil || fl == flowReturn {
					return fl, v, err
				}
			}
			if err := st.kern.Step(); err != nil {
				return flowNormal, voidValue, err
			}
		}
		return flowNormal, voidValue, nil
	}
}

// runSeq executes a compiled statement sequence with block semantics.
func runSeq(body []stmtFn, st *state, fr []Value) (flow, Value, error) {
	for _, sf := range body {
		fl, v, err := sf(st, fr)
		if err != nil || fl != flowNormal {
			return fl, v, err
		}
	}
	return flowNormal, voidValue, nil
}

// cclause is one compiled switch arm.
type cclause struct {
	vals      []exprFn
	caseLine  int
	body      []stmtFn
	isDefault bool
}

func (c *compiler) switchStmt(s *cast.SwitchStmt) stmtFn {
	tagFn := c.expr(s.Tag)
	clauses := make([]*cclause, len(s.Clauses))
	for i, cl := range s.Clauses {
		cc := &cclause{caseLine: c.line(cl.CasePos), isDefault: cl.Values == nil}
		for _, vx := range cl.Values {
			cc.vals = append(cc.vals, c.expr(vx))
		}
		c.pushScope()
		cc.body = c.seq(cl.Stmts)
		c.popScope()
		clauses[i] = cc
	}
	return func(st *state, fr []Value) (flow, Value, error) {
		tag, err := tagFn(st, fr)
		if err != nil {
			return flowNormal, voidValue, err
		}
		var chosen, deflt *cclause
		for _, cl := range clauses {
			if cl.isDefault {
				deflt = cl
				continue
			}
			for _, vf := range cl.vals {
				v, err := vf(st, fr)
				if err != nil {
					return flowNormal, voidValue, err
				}
				if v.I == tag.I {
					chosen = cl
					break
				}
			}
			if chosen != nil {
				break
			}
		}
		if chosen == nil {
			chosen = deflt
		}
		if chosen == nil {
			return flowNormal, voidValue, nil
		}
		st.cov.Add(chosen.caseLine)
		for _, sf := range chosen.body {
			fl, v, err := sf(st, fr)
			if err != nil {
				return flowNormal, voidValue, err
			}
			switch fl {
			case flowBreak:
				return flowNormal, voidValue, nil
			case flowReturn, flowContinue:
				return fl, v, nil
			}
		}
		return flowNormal, voidValue, nil
	}
}

// truncFn resolves cinterp.Truncate's storage-type switch for an
// integer value at compile time; full-width storage truncates to itself.
func truncFn(t cast.CType) func(int64) int64 {
	switch t.Kind {
	case cast.TypeU8:
		return func(x int64) int64 { return int64(uint8(x)) }
	case cast.TypeU16:
		return func(x int64) int64 { return int64(uint16(x)) }
	case cast.TypeU32:
		return func(x int64) int64 { return int64(uint32(x)) }
	case cast.TypeS8:
		return func(x int64) int64 { return int64(int8(x)) }
	case cast.TypeS16:
		return func(x int64) int64 { return int64(int16(x)) }
	case cast.TypeInt, cast.TypeS32:
		return func(x int64) int64 { return int64(int32(x)) }
	}
	return func(x int64) int64 { return x }
}

// lval is a compiled storage location: local slot, global slot, or the
// interpreter's undefined-variable fault.
type lval struct {
	typ   cast.CType
	load  func(st *state, fr []Value) (Value, error)
	store func(st *state, fr []Value, v Value)
}

// lvalue resolves an assignment target at compile time, reproducing the
// interpreter's loadSlot chain (locals, then globals, then a crash).
func (c *compiler) lvalue(id *cast.Ident) *lval {
	if ls, ok := c.lookupLocal(id.Name); ok {
		slot := ls.idx
		return &lval{
			typ:   ls.typ,
			load:  func(st *state, fr []Value) (Value, error) { return fr[slot], nil },
			store: func(st *state, fr []Value, v Value) { fr[slot] = v },
		}
	}
	if g, ok := c.globalIdx[id.Name]; ok {
		slot, ord, name := g.slot, g.ord, id.Name
		return &lval{
			typ: g.typ,
			load: func(st *state, fr []Value) (Value, error) {
				if ord >= st.declsReady {
					return voidValue, undefVarErr(name)
				}
				return st.globals[slot], nil
			},
			store: func(st *state, fr []Value, v Value) { st.globals[slot] = v },
		}
	}
	name := id.Name
	return &lval{
		typ:   cast.CType{Kind: cast.TypeInt},
		load:  func(st *state, fr []Value) (Value, error) { return voidValue, undefVarErr(name) },
		store: func(st *state, fr []Value, v Value) {},
	}
}

func undefVarErr(name string) error {
	return &kernel.CrashError{Cause: fmt.Errorf("read of undefined variable %q", name)}
}
