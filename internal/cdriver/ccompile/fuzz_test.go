package ccompile_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/ccheck"
	"repro/internal/cdriver/ccompile"
	"repro/internal/cdriver/cinterp"
	"repro/internal/cdriver/cparser"
	"repro/internal/cdriver/ctypes"
)

// fuzzBudget bounds each fuzzed run: mutated loop bounds make
// non-terminating programs common, and the watchdog trip is itself part
// of the contract.
const fuzzBudget = 20_000

// loweringSeeds are the shapes the shared statement lowering touches:
// compound assignments to narrow locals and to globals inside loop
// bodies, guarded (used-before-declared) macros in loop predicates,
// for loops with a non-local post, and if segments that break,
// continue or return out of a superblock.
var loweringSeeds = []string{
	`int g;
int f(int n) {
	u8 b = 250;
	s16 w = 32000;
	int i;
	for (i = 0; i < n; i++) {
		b += 3;
		w += 1000;
		w <<= 1;
		b ^= i;
		g |= b;
		g -= w;
		g >>= 1;
		g &= 0xffff;
	}
	return g + b + w;
}`,
	`int early(int n) {
	int t = 0;
	while (t < LIMIT) {
		t = t + STEP;
	}
	for (; n < LIMIT * 2; n++) {
		t += n % STEP;
	}
	return t;
}
#define LIMIT 40
#define STEP 3
int late = early(1);
int f(int n) { return late + early(n); }`,
	`int early(int n) {
	int t = 0;
	while (t < LIMIT) {
		t++;
	}
	return t + n;
}
int tooEarly = early(2);
#define LIMIT 40
int f(int n) { return tooEarly + n; }`,
	`int g;
int f(int n) {
	int acc = 0;
	for (g = 0; g < n; g++) {
		acc += g;
	}
	for (g = n; g > 0; g = g - 2) {
		acc = acc + 1;
	}
	return acc + g;
}`,
	`int f(int n) {
	int i = 0;
	int acc = 0;
	while (i < 50) {
		i++;
		if (i % 3 == 0) {
			continue;
		}
		if (acc > n) {
			break;
		}
		if (i == 40) {
			return -acc;
		} else {
			acc += i;
		}
	}
	return acc;
}`,
}

// FuzzCompileMatchesInterp drives the interpreter-versus-block contract
// into program shapes the driver corpus never produces. Any source that
// lexes, parses and checks runs its first function on both backends,
// with the fuzzed integer passed to every parameter, and runBoth's
// comparison must hold: errors, value, console, covered lines and step
// count. Programs the compiler rejects (ErrUnsupported) run on the
// interpreter alone in production and are skipped. The seeds are every
// source in ccompile_test.go, superblock_test.go and quiet_test.go plus
// loweringSeeds; newRig's countdown device gives the quiet poll loops
// among them finite fast-forward windows.
func FuzzCompileMatchesInterp(f *testing.F) {
	for _, src := range testSources(f, "ccompile_test.go", "superblock_test.go", "quiet_test.go") {
		f.Add(src, int64(7))
	}
	for _, src := range loweringSeeds {
		f.Add(src, int64(5))
	}
	f.Fuzz(func(t *testing.T, src string, arg int64) {
		prog, perrs := cparser.Parse(src)
		if len(perrs) != 0 {
			t.Skip("does not parse")
		}
		env := ctypes.NewEnv(false)
		if cerrs := ccheck.Check(prog, env); len(cerrs) != 0 {
			t.Skip("does not check")
		}
		entry := entryOf(prog)
		if entry == nil {
			t.Skip("no function")
		}
		r := newRig()
		if _, err := ccompile.Compile(prog, r.kern, r.bus, nil, nil); errors.Is(err, ccompile.ErrUnsupported) {
			t.Skip("compiler falls back to the interpreter")
		}
		args := make([]cinterp.Value, len(entry.Params))
		for i := range args {
			args[i] = cinterp.IntValue(arg)
		}
		compareBackends(t, prog, env, fuzzBudget, entry.Name, args...)
	})
}

// testSources collects the C sources the named test files hold: every
// string literal that parses and checks as a program, either as written
// or wrapped as `int f(void) { return <literal>; }` (the expression
// tables). Messages, import paths and other literals drop out.
func testSources(tb testing.TB, files ...string) []string {
	checks := func(src string) bool {
		prog, errs := cparser.Parse(src)
		return len(errs) == 0 && len(ccheck.Check(prog, ctypes.NewEnv(false))) == 0 &&
			entryOf(prog) != nil
	}
	var out []string
	for _, name := range files {
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if wrapped := "int f(void) { return " + s + "; }"; checks(wrapped) {
				out = append(out, wrapped)
			} else if checks(s) {
				out = append(out, s)
			}
			return true
		})
	}
	return out
}

// entryOf returns the program's first function, the fuzzed entry point.
func entryOf(prog *cast.Program) *cast.FuncDecl {
	for _, d := range prog.Decls {
		if fd, ok := d.(*cast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}
