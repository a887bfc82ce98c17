package ccompile_test

import (
	"fmt"
	"testing"

	"repro/internal/cdriver/ccheck"
	"repro/internal/cdriver/cinterp"
	"repro/internal/cdriver/cparser"
	"repro/internal/cdriver/ctypes"
)

// Quiescence fast-forward exactness: the interpreter never skips, so
// every case below must match it byte for byte — value, console,
// coverage, steps, clock and bus accesses — while the block backend
// skips (or, where the loop is not quiet or its port not stable, does
// not). newRig's countdown device at 0x100 gives finite windows; every
// other port floats, which is stable forever.

// quietBudget bounds the runaway cases.
const quietBudget = 60_000

// runQuiet is runBoth under quietBudget.
func runQuiet(t *testing.T, src string, args ...cinterp.Value) outcome {
	t.Helper()
	prog, perrs := cparser.Parse(src)
	if len(perrs) != 0 {
		t.Fatalf("parse: %v", perrs)
	}
	env := ctypes.NewEnv(false)
	if cerrs := ccheck.Check(prog, env); len(cerrs) != 0 {
		t.Fatalf("check: %v", cerrs)
	}
	return compareBackends(t, prog, env, quietBudget, "f", args...)
}

// TestQuietCounterRelations runs a counted poll loop for every relation
// in both operand orders (the fast path takes only `counter REL bound`),
// counting up and down, against a countdown
// that outlasts the loop (the condition ends it) and one that does not
// (the poll returns). Counting away from the bound, the condition never
// turns false and only the countdown ends the loop.
func TestQuietCounterRelations(t *testing.T) {
	var skipped int64
	for _, rel := range []string{"<", "<=", ">", ">=", "==", "!="} {
		for _, step := range []string{"++", "--"} {
			for _, armed := range []int{300, 50_000} {
				for _, mirrored := range []bool{false, true} {
					// The condition holds at the start; it turns false
					// when the counter moves toward the bound, and never
					// (short of the countdown) when it moves away.
					start, bound := 0, 4000
					switch rel {
					case ">", ">=":
						start, bound = 4000, 0
					case "==":
						bound = 0
					}
					cond := fmt.Sprintf("t %s LIMIT", rel)
					if mirrored {
						cond = fmt.Sprintf("LIMIT %s t", mirror(rel))
					}
					src := fmt.Sprintf(`#define LIMIT %d
int f(int n) {
	int t;
	outw(%d, 0x100);
	for (t = %d; %s; t%s) {
		if (inw(0x100) == 0) {
			return t;
		}
		if (inb(0x300) != 0xff)
			break;
	}
	return t + n;
}`, bound, armed, start, cond, step)
					t.Run(fmt.Sprintf("%s/%s/%d/%v", rel, step, armed, mirrored), func(t *testing.T) {
						skipped += runQuiet(t, src, intArg(1)).skipped
					})
				}
			}
		}
	}
	if skipped == 0 {
		t.Error("no relation case fast-forwarded: the oracle passed vacuously")
	}
}

// mirror is the relation that holds with its operands swapped.
func mirror(rel string) string {
	return map[string]string{"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}[rel]
}

// TestQuietCounterWrap runs counters of narrow and full storage types
// across their wrap point: the skip must stop short of the wrap, which
// the next iterations then take one by one.
func TestQuietCounterWrap(t *testing.T) {
	for _, src := range []string{
		`int f(int n) {
	u8 t;
	for (t = 0; t < 300; t++) {
		if (inb(0x300) == 0) return 1;
	}
	return t;
}`,
		`int f(int n) {
	s8 t;
	for (t = 0; t < 200; t++) {
		if (inb(0x300) == 0) return 1;
	}
	return t;
}`,
		`int f(int n) {
	u8 t;
	for (t = 10; t != 200; t--) {
		if (inb(0x300) == 0) return 1;
	}
	return t;
}`,
		`int f(int n) {
	u8 t;
	for (t = 10; t != 0; t++) {
		if (inb(0x300) == 0) return 1;
	}
	return t;
}`,
		`int f(int n) {
	s8 t;
	int stop = 0 - 128;
	for (t = 0; t != stop; t++) {
		if (inb(0x300) == 0) return 1;
	}
	return t;
}`,
		`int f(int n) {
	int t;
	for (t = 2147480000; t > 0; t++) {
		if (inb(0x300) == 0) return 1;
	}
	return t;
}`,
		`int f(int n) {
	int t;
	for (t = -2147480000; t < 0; t--) {
		if (inb(0x300) == 0) return 1;
	}
	return t;
}`,
	} {
		if out := runQuiet(t, src, intArg(0)); out.skipped == 0 {
			t.Errorf("no fast-forward in:\n%s", src)
		}
	}
}

// TestQuietFloatingRunsToBudget: a bare poll of the floating bus never
// ends, and the skip must land the watchdog on exactly budget+1 steps.
func TestQuietFloatingRunsToBudget(t *testing.T) {
	src := `int f(int n) {
	while (inb(0x300) & 0x80) {
	}
	return n;
}`
	out := runQuiet(t, src, intArg(3))
	if out.steps != quietBudget+1 || out.errText == "" {
		t.Fatalf("steps = %d, err %q; want the watchdog at %d", out.steps, out.errText, quietBudget+1)
	}
	if out.skipped < quietBudget/2 {
		t.Errorf("skipped %d of %d steps, want most of them", out.skipped, out.steps)
	}
}

// TestQuietCountdownExpires polls the countdown to zero without a
// counter: finite windows, the poll returns at the exact tick the
// interpreter sees.
func TestQuietCountdownExpires(t *testing.T) {
	src := `int f(int n) {
	outw(n, 0x100);
	while ((inw(0x100) >> 1) + 0 != 0) {
	}
	return inw(0x100);
}`
	if out := runQuiet(t, src, intArg(20000)); out.skipped == 0 {
		t.Error("countdown poll never fast-forwarded")
	}
}

// TestQuietUnstablePortNeverSkips: the countdown's read counter has a
// side effect on every read, so its poll loop runs every iteration.
func TestQuietUnstablePortNeverSkips(t *testing.T) {
	src := `int f(int n) {
	int t;
	for (t = 0; t < 5000; t++) {
		if (inw(0x101) == 0) return -1;
	}
	return inw(0x101);
}`
	if out := runQuiet(t, src, intArg(0)); out.skipped != 0 {
		t.Errorf("skipped %d steps of a side-effecting poll", out.skipped)
	}
}

// TestQuietShapesNotTaken: loops just outside the quiet shape — an else
// arm, a body statement that is not an exiting if, a counter read in a
// poll condition, a stepped post — run without skipping and still
// match the interpreter.
func TestQuietShapesNotTaken(t *testing.T) {
	for _, src := range []string{
		`int f(int n) {
	int t;
	int k = 0;
	for (t = 0; t < 3000; t++) {
		if (inb(0x300) == 0) return 1; else k = k + 1;
	}
	return k;
}`,
		`int f(int n) {
	int t;
	for (t = 0; t < 3000; t++) {
		if (inb(0x300) == 0) n = 1;
	}
	return n;
}`,
		`int f(int n) {
	int t;
	for (t = 0; t < 3000; t++) {
		if (inb(0x300 + t) == 0) return 1;
	}
	return t;
}`,
		`int f(int n) {
	int t;
	for (t = 0; t < 3000; t = t + 2) {
		if (inb(0x300) == 0) return 1;
	}
	return t;
}`,
	} {
		if out := runQuiet(t, src, intArg(0)); out.skipped != 0 {
			t.Errorf("skipped %d steps in a loop outside the quiet shape:\n%s", out.skipped, src)
		}
	}
}
