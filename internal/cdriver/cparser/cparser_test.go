package cparser_test

import (
	"testing"

	"repro/internal/cdriver/cast"
	"repro/internal/cdriver/cparser"
)

func mustParse(t *testing.T, src string) *cast.Program {
	t.Helper()
	prog, errs := cparser.Parse(src)
	if len(errs) != 0 {
		t.Fatalf("parse: %v", errs)
	}
	return prog
}

func TestParseDeclarations(t *testing.T) {
	prog := mustParse(t, `
#define LIMIT 100
static u32 base = 0x1f0;
static inline int add(u8 a, u16 b) { return a + b; }
void nothing(void) { }
`)
	if len(prog.Macros()) != 1 || prog.Macros()[0].Name != "LIMIT" {
		t.Errorf("macros: %v", prog.Macros())
	}
	if len(prog.Funcs()) != 2 {
		t.Fatalf("funcs: %d", len(prog.Funcs()))
	}
	add := prog.Func("add")
	if add == nil || len(add.Params) != 2 || add.Result.Kind != cast.TypeInt {
		t.Errorf("add signature wrong: %+v", add)
	}
	if prog.Func("nothing").Result.Kind != cast.TypeVoid {
		t.Error("void result lost")
	}
}

func TestDevilTypeHeuristic(t *testing.T) {
	prog := mustParse(t, `
int f(Drive_t who) {
    Drive_t other = who;
    u32 x = (u8) 5;
    return 0;
}`)
	f := prog.Func("f")
	if f.Params[0].Type.Kind != cast.TypeDevilStruct || f.Params[0].Type.Name != "Drive_t" {
		t.Errorf("param type: %v", f.Params[0].Type)
	}
	decl := f.Body.Stmts[0].(*cast.DeclStmt)
	if decl.Decl.Type.Name != "Drive_t" {
		t.Errorf("local type: %v", decl.Decl.Type)
	}
}

// TestPrecedence evaluates constant expressions through the parser shape:
// the tree must reflect C precedence.
func TestPrecedence(t *testing.T) {
	prog := mustParse(t, `int f(void) { return 1 | 2 ^ 3 & 4 == 5 << 1 + 2 * 3; }`)
	ret := prog.Func("f").Body.Stmts[0].(*cast.ReturnStmt)
	// Top node must be | (lowest precedence present).
	top, ok := ret.X.(*cast.BinaryExpr)
	if !ok {
		t.Fatalf("return expr is %T", ret.X)
	}
	if top.Op.String() != "|" {
		t.Errorf("top operator = %v, want |", top.Op)
	}
	xor := top.Y.(*cast.BinaryExpr)
	if xor.Op.String() != "^" {
		t.Errorf("second level = %v, want ^", xor.Op)
	}
}

func TestStatements(t *testing.T) {
	prog := mustParse(t, `
int f(int n) {
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) {
        acc += i;
    }
    while (acc > 100) { acc -= 10; }
    do { acc--; } while (acc > 50);
    switch (acc) {
    case 1:
    case 2:
        acc = 0;
        break;
    case 3:
        return 3;
    default:
        acc = acc ? 1 : 2;
    }
    if (acc == 1) { return 1; } else { return acc; }
}`)
	f := prog.Func("f")
	kinds := make([]string, 0, len(f.Body.Stmts))
	for _, s := range f.Body.Stmts {
		switch s.(type) {
		case *cast.DeclStmt:
			kinds = append(kinds, "decl")
		case *cast.ForStmt:
			kinds = append(kinds, "for")
		case *cast.WhileStmt:
			kinds = append(kinds, "while")
		case *cast.DoWhileStmt:
			kinds = append(kinds, "do")
		case *cast.SwitchStmt:
			kinds = append(kinds, "switch")
		case *cast.IfStmt:
			kinds = append(kinds, "if")
		default:
			kinds = append(kinds, "?")
		}
	}
	want := []string{"decl", "decl", "for", "while", "do", "switch", "if"}
	if len(kinds) != len(want) {
		t.Fatalf("statement kinds: %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("stmt %d = %s, want %s", i, kinds[i], want[i])
		}
	}
	sw := f.Body.Stmts[5].(*cast.SwitchStmt)
	if len(sw.Clauses) != 3 {
		t.Fatalf("switch clauses: %d", len(sw.Clauses))
	}
	if len(sw.Clauses[0].Values) != 2 {
		t.Errorf("shared case labels: %d values", len(sw.Clauses[0].Values))
	}
	if sw.Clauses[2].Values != nil {
		t.Error("default clause has values")
	}
}

func TestLiteralValues(t *testing.T) {
	prog := mustParse(t, `int f(void) { return 0x1f0 + 010 + 42 + 'A'; }`)
	ret := prog.Func("f").Body.Stmts[0].(*cast.ReturnStmt)
	sum := 0
	var walk func(e cast.Expr)
	walk = func(e cast.Expr) {
		switch e := e.(type) {
		case *cast.BinaryExpr:
			walk(e.X)
			walk(e.Y)
		case *cast.IntLit:
			sum += int(e.Value)
		}
	}
	walk(ret.X)
	if sum != 0x1f0+8+42+65 {
		t.Errorf("literal sum = %d, want %d", sum, 0x1f0+8+42+65)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`int f( { }`,
		`int f(void) { return }`,
		`int f(void) { x = ; }`,
		`int f(void) { if ( { } }`,
		`int 5func(void) {}`,
		`int f(void) { switch (x) { stray; } }`,
	}
	for _, src := range cases {
		if _, errs := cparser.Parse(src); len(errs) == 0 {
			t.Errorf("%q parsed without errors", src)
		}
	}
}

func TestErrorRecovery(t *testing.T) {
	prog, errs := cparser.Parse(`
int broken(void) { return +; }
int fine(void) { return 1; }
`)
	if len(errs) == 0 {
		t.Fatal("no errors")
	}
	if prog.Func("fine") == nil {
		t.Error("parser did not recover to the next function")
	}
}

// TestEmptyStatementBodies: a lone `;` as the body of an if, else,
// while, do or for parses to an empty block, never to a nil statement
// the backends would have to special-case.
func TestEmptyStatementBodies(t *testing.T) {
	prog := mustParse(t, `int f(int x) {
	if (x) ; else ;
	while (x) ;
	do ; while (x);
	for (;;) ;
	return 0;
}`)
	body := prog.Decls[0].(*cast.FuncDecl).Body.Stmts
	ifs := body[0].(*cast.IfStmt)
	for i, s := range []cast.Stmt{ifs.Then, ifs.Else, body[1].(*cast.WhileStmt).Body,
		body[2].(*cast.DoWhileStmt).Body, body[3].(*cast.ForStmt).Body} {
		if b, ok := s.(*cast.Block); !ok || len(b.Stmts) != 0 {
			t.Errorf("body %d = %#v, want an empty block", i, s)
		}
	}
}
