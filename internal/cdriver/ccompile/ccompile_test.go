package ccompile_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/ccheck"
	"repro/internal/cdriver/ccompile"
	"repro/internal/cdriver/ccov"
	"repro/internal/cdriver/cinterp"
	"repro/internal/cdriver/cparser"
	"repro/internal/cdriver/ctoken"
	"repro/internal/cdriver/ctypes"
	"repro/internal/hw"
	"repro/internal/kernel"
)

// rig is one freshly assembled plain-C execution context: a floating
// bus with a countdown device at countdownPort.
type rig struct {
	kern *kernel.Kernel
	bus  *hw.Bus
}

func newRig() *rig {
	bus := hw.NewBus()
	bus.SetFloating(true)
	clock := &hw.Clock{}
	if err := bus.Map(countdownPort, 2, &countdown{clock: clock}); err != nil {
		panic(err)
	}
	return &rig{kern: kernel.New(clock), bus: bus}
}

// countdownPort is where newRig maps its countdown device.
const countdownPort = 0x100

// countdown is a test device that gives quiet poll loops finite
// windows. A write to offset 0 arms a deadline value ticks ahead; a read
// of offset 0 returns the ticks left over 64, which changes every 64
// ticks and is 0 from the deadline on. Offset 1 counts its own reads,
// so it never answers the Stable query.
type countdown struct {
	clock    *hw.Clock
	deadline uint64
	reads    uint32
}

func (d *countdown) Name() string { return "countdown" }

func (d *countdown) left() uint64 {
	if now := d.clock.Now(); now < d.deadline {
		return d.deadline - now
	}
	return 0
}

func (d *countdown) Read(off hw.Port, w hw.AccessWidth) (uint32, error) {
	if off == 1 {
		d.reads++
		return d.reads, nil
	}
	return uint32(d.left() >> 6), nil
}

func (d *countdown) Write(off hw.Port, w hw.AccessWidth, v uint32) error {
	if off == 0 {
		d.deadline = d.clock.Now() + uint64(v)
	}
	return nil
}

// StableUntil implements hw.Stable: the value next drops when the ticks
// left fall below its current multiple of 64.
func (d *countdown) StableUntil(off hw.Port, w hw.AccessWidth, now uint64) (uint64, bool) {
	if off == 1 {
		return 0, false
	}
	v := d.left() >> 6
	if v == 0 {
		return hw.Forever, true
	}
	return d.deadline - v<<6 + 1, true
}

// outcome captures everything observable about one call on one backend.
type outcome struct {
	val     cinterp.Value
	errText string
	console []string
	cov     *ccov.Set
	steps   int64
	// skipped is the block backend's fast-forwarded step count.
	skipped int64
}

// runBoth executes fn on the interpreter and the block backend and
// requires identical observable results, returning the (shared)
// outcome.
func runBoth(t *testing.T, src, fn string, args ...cinterp.Value) outcome {
	t.Helper()
	prog, perrs := cparser.Parse(src)
	if len(perrs) != 0 {
		t.Fatalf("parse: %v", perrs)
	}
	env := ctypes.NewEnv(false)
	if cerrs := ccheck.Check(prog, env); len(cerrs) != 0 {
		t.Fatalf("check: %v", cerrs)
	}
	return compareBackends(t, prog, env, 0, fn, args...)
}

// compareBackends is runBoth's comparison over a checked program: init
// and call errors, value, console, covered lines and step count must
// match. A positive budget replaces the kernels' default step budget.
func compareBackends(t *testing.T, prog *cast.Program, env *ctypes.Env, budget int64,
	fn string, args ...cinterp.Value) outcome {
	t.Helper()
	interpRig, compRig := newRig(), newRig()
	if budget > 0 {
		interpRig.kern.SetBudget(budget)
		compRig.kern.SetBudget(budget)
	}
	in, ierr := cinterp.New(prog, env, interpRig.kern, interpRig.bus, nil)

	p, cerr := ccompile.Compile(prog, compRig.kern, compRig.bus, nil, nil)
	if cerr != nil {
		t.Fatalf("compile: %v", cerr)
	}
	perr := p.Init()

	if (ierr == nil) != (perr == nil) || (ierr != nil && ierr.Error() != perr.Error()) {
		t.Fatalf("init divergence: interp=%v compiled=%v", ierr, perr)
	}
	if ierr != nil {
		return outcome{errText: ierr.Error()}
	}

	iv, ie := in.Call(fn, args...)
	cv, ce := p.Call(fn, args...)
	if (ie == nil) != (ce == nil) || (ie != nil && ie.Error() != ce.Error()) {
		t.Fatalf("error divergence: interp=%v compiled=%v", ie, ce)
	}
	if ie == nil && iv != cv {
		t.Fatalf("value divergence: interp=%+v compiled=%+v", iv, cv)
	}
	if ic, cc := interpRig.kern.Console(), compRig.kern.Console(); strings.Join(ic, "\n") != strings.Join(cc, "\n") {
		t.Fatalf("console divergence:\ninterp:   %q\ncompiled: %q", ic, cc)
	}
	// Compare coverage through the CoveredLines iterator both backends
	// expose, then through the bitset equality the hot path uses.
	var iLines, cLines []int
	for line := range in.CoveredLines() {
		iLines = append(iLines, line)
	}
	for line := range p.CoveredLines() {
		cLines = append(cLines, line)
	}
	if !in.Coverage().Equal(p.Coverage()) || len(iLines) != len(cLines) {
		t.Fatalf("coverage divergence: interp=%v compiled=%v", iLines, cLines)
	}
	if is, cs := interpRig.kern.Steps(), compRig.kern.Steps(); is != cs {
		t.Fatalf("step divergence: interp=%d compiled=%d", is, cs)
	}
	if it, ct := interpRig.kern.Clock().Now(), compRig.kern.Clock().Now(); it != ct {
		t.Fatalf("clock divergence: interp=%d compiled=%d", it, ct)
	}
	ia, _ := interpRig.bus.Stats()
	if ca, _ := compRig.bus.Stats(); ia != ca {
		t.Fatalf("bus access divergence: interp=%d compiled=%d", ia, ca)
	}
	var errText string
	if ie != nil {
		errText = ie.Error()
	}
	return outcome{val: cv, errText: errText, console: compRig.kern.Console(),
		cov: p.Coverage(), steps: compRig.kern.Steps(), skipped: p.QuietSkippedSteps()}
}

func callInt(t *testing.T, src, fn string, args ...cinterp.Value) int64 {
	t.Helper()
	o := runBoth(t, src, fn, args...)
	if o.errText != "" {
		t.Fatalf("call failed: %s", o.errText)
	}
	return o.val.I
}

func TestArithmeticAndTruncation(t *testing.T) {
	tests := []struct {
		expr string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"0x10 | 0x01", 0x11},
		{"1 << 4", 16},
		{"256 >> 4", 16},
		{"7 % 3", 1},
		{"~0 & 0xff", 0xff},
		{"!5", 0},
		{"-5 + 3", -2},
		{"3 == 3", 1},
		{"1 && 2", 1},
		{"0 ? 10 : 20", 20},
		{"(u8) 0x1ff", 0xff},
		{"(s8) 0xff", -1},
	}
	for _, tt := range tests {
		src := "int f(void) { return " + tt.expr + "; }"
		if got := callInt(t, src, "f"); got != tt.want {
			t.Errorf("%s = %d, want %d", tt.expr, got, tt.want)
		}
	}
}

func TestDeclaredTypeTruncationOnStore(t *testing.T) {
	src := `
int f(void) {
	u8 x;
	x = 300;
	x += 1;
	return x;
}`
	if got := callInt(t, src, "f"); got != 45 {
		t.Errorf("u8 store chain = %d, want 45", got)
	}
}

func TestScopeShadowingAndLoops(t *testing.T) {
	src := `
int g;
int f(void) {
	int x = 1;
	int sum = 0;
	{
		int x = 10;
		sum += x;
	}
	sum += x;
	for (int i = 0; i < 4; i++) {
		int x = i;
		if (x == 2) { continue; }
		sum += x;
	}
	while (x < 5) { x++; }
	do { x--; } while (x > 3);
	g = sum;
	return sum * 100 + x;
}`
	// sum = 10 + 1 + (0+1+3) = 15; x ends at 3.
	if got := callInt(t, src, "f"); got != 1503 {
		t.Errorf("f = %d, want 1503", got)
	}
}

func TestForScopeHoldsDeclarationBody(t *testing.T) {
	// A for statement opens a scope whether or not it has an init, so a
	// declaration as its body shadows the outer variable only inside
	// the loop.
	src := `
int f(int n) {
	int y = 1;
	int z = 2;
	for (; n > 0; n--) int y = 7;
	for (int i = 0; i < 3; i++) int z = i;
	return y * 10 + z;
}`
	if got := callInt(t, src, "f", cinterp.IntValue(1)); got != 12 {
		t.Errorf("f(1) = %d, want 12", got)
	}
}

func TestSwitchSemantics(t *testing.T) {
	src := `
int f(int x) {
	int r = 0;
	switch (x) {
	case 1: r = 10; break;
	case 2:
	case 3: r = 23; break;
	default: r = 99;
	}
	return r;
}`
	for _, tt := range []struct{ in, want int64 }{{1, 10}, {2, 23}, {3, 23}, {7, 99}} {
		if got := callInt(t, src, "f", cinterp.IntValue(tt.in)); got != tt.want {
			t.Errorf("f(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestMacrosAndGlobals(t *testing.T) {
	src := `
#define BASE 0x100
#define NEXT BASE + 8
int origin = BASE;
int f(void) { return NEXT + origin; }`
	if got := callInt(t, src, "f"); got != 0x100+8+0x100 {
		t.Errorf("f = %d", got)
	}
}

func TestRecursionOverflowMatchesInterpreter(t *testing.T) {
	src := `int f(int n) { return f(n + 1); }`
	o := runBoth(t, src, "f", cinterp.IntValue(0))
	if !strings.Contains(o.errText, `call stack overflow in "f"`) {
		t.Errorf("overflow error = %q", o.errText)
	}
}

func TestDivisionByZeroMatchesInterpreter(t *testing.T) {
	src := `int f(int n) { return 10 / n; }`
	o := runBoth(t, src, "f", cinterp.IntValue(0))
	if !strings.Contains(o.errText, "division by zero") {
		t.Errorf("error = %q", o.errText)
	}
}

func TestPrintkAndPanic(t *testing.T) {
	src := `
int f(void) {
	printk("val %d mask %x tail %%", 42, 255);
	panic("boom");
	return 0;
}`
	o := runBoth(t, src, "f")
	if !strings.Contains(o.errText, "kernel panic") {
		t.Errorf("panic error = %q", o.errText)
	}
	if len(o.console) == 0 || o.console[0] != "val 42 mask ff tail %" {
		t.Errorf("console = %q", o.console)
	}
}

func TestGlobalInitSelfReferenceFaults(t *testing.T) {
	// The checker registers a global before checking its initialiser, so
	// "int x = x + 1;" checks — and faults identically at insmod time on
	// both backends (runBoth diffs the init errors).
	o := runBoth(t, `int x = x + 1; int f(void) { return x; }`, "f")
	if !strings.Contains(o.errText, `use of undefined identifier "x"`) {
		t.Errorf("init error = %q", o.errText)
	}
}

func TestCoverageReflectsTakenBranches(t *testing.T) {
	src := `int f(int x) {
	if (x) {
		return 1;
	}
	return 2;
}`
	o := runBoth(t, src, "f", cinterp.IntValue(1))
	if !o.cov.Covered(3) {
		t.Error("taken branch (line 3) not covered")
	}
	if o.cov.Covered(5) {
		t.Error("untaken branch (line 5) covered")
	}
}

func TestRecursiveCallArgumentsAreIsolated(t *testing.T) {
	// Exercises the pooled argument buffers under recursion: every
	// activation must see its own arguments.
	src := `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}`
	if got := callInt(t, src, "fib", cinterp.IntValue(12)); got != 144 {
		t.Errorf("fib(12) = %d, want 144", got)
	}
}

func TestMacroCycleIsUnsupported(t *testing.T) {
	// A macro expansion cycle (creatable only by exotic identifier
	// mutants) must be rejected with ErrUnsupported, not loop the
	// compiler forever; the caller then falls back to the interpreter.
	src := `
#define A B
#define B A
int f(void) { return A; }`
	prog, perrs := cparser.Parse(src)
	if len(perrs) != 0 {
		t.Fatalf("parse: %v", perrs)
	}
	r := newRig()
	_, err := ccompile.Compile(prog, r.kern, r.bus, nil, nil)
	if !errors.Is(err, ccompile.ErrUnsupported) {
		t.Fatalf("cyclic macro: err = %v, want ErrUnsupported", err)
	}
}

func TestUnknownAssignOperatorIsUnsupported(t *testing.T) {
	// The parser admits only the eight assignment operators; an AST
	// carrying any other one must make compilation fail with
	// ErrUnsupported, so the interpreter's fault stays the reference.
	prog, perrs := cparser.Parse(`int f(void) { int x = 1; x += 2; return x; }`)
	if len(perrs) != 0 {
		t.Fatalf("parse: %v", perrs)
	}
	body := prog.Decls[0].(*cast.FuncDecl).Body.Stmts
	body[1].(*cast.AssignStmt).Op = ctoken.Mul
	r := newRig()
	if _, err := ccompile.Compile(prog, r.kern, r.bus, nil, nil); !errors.Is(err, ccompile.ErrUnsupported) {
		t.Fatalf("assignment operator %s: err = %v, want ErrUnsupported", ctoken.Mul, err)
	}
}

func TestMachReuseAcrossBoots(t *testing.T) {
	// One Mach pools stack, coverage and argument buffers across
	// compiles; the second boot must start from clean state.
	m := ccompile.NewMach()
	src := `int f(int n) { int acc = 0; while (n > 0) { acc += n; n--; } return acc; }`
	prog, perrs := cparser.Parse(src)
	if len(perrs) != 0 {
		t.Fatalf("parse: %v", perrs)
	}
	env := ctypes.NewEnv(false)
	if cerrs := ccheck.Check(prog, env); len(cerrs) != 0 {
		t.Fatalf("check: %v", cerrs)
	}
	var firstCov []int
	for i := 0; i < 3; i++ {
		r := newRig()
		p, err := ccompile.Compile(prog, r.kern, r.bus, nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Init(); err != nil {
			t.Fatal(err)
		}
		v, err := p.Call("f", cinterp.IntValue(10))
		if err != nil || v.I != 55 {
			t.Fatalf("boot %d: f(10) = %v, %v", i, v, err)
		}
		if i == 0 {
			firstCov = p.Coverage().Slice()
		} else if got := p.Coverage().Slice(); len(got) != len(firstCov) {
			t.Fatalf("boot %d coverage = %v, want %v", i, got, firstCov)
		}
	}
}
