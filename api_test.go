package hypermm

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestAPILedger keeps testdata/api.golden equal to the package's
// exported surface: one line per exported identifier (methods written
// Type.Method) with its declaration as printed from the source, and, for
// package-level names, the non-test packages of this module and of the
// bench module that use it. A new export, a changed signature or a lost
// caller shows in the diff. Regenerate with -update; the update refuses
// to drop a name the bench module uses, because the benchmark builds
// against it.
func TestAPILedger(t *testing.T) {
	got := apiLedger(t)
	path := filepath.Join("testdata", "api.golden")
	want, err := os.ReadFile(path)
	if *update {
		kept := map[string]bool{}
		for _, line := range strings.Split(got, "\n") {
			name, _, _ := strings.Cut(line, "\t")
			kept[name] = true
		}
		for _, line := range strings.Split(string(want), "\n") {
			if name, _, _ := strings.Cut(line, "\t"); !kept[name] && slices.Contains(ledgerUsers(line), "bench") {
				t.Fatalf("%s is used by bench; the ledger may not drop it", name)
			}
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("exported surface drifted from %s (run with -update for an intended change):\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// exportedFields drops a struct type's unexported fields, which are
// not part of the surface.
func exportedFields(typ ast.Expr) {
	st, ok := typ.(*ast.StructType)
	if !ok {
		return
	}
	st.Fields.List = slices.DeleteFunc(st.Fields.List, func(f *ast.Field) bool {
		if len(f.Names) == 0 { // embedded: exported when its type name is
			typ := f.Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if sel, ok := typ.(*ast.SelectorExpr); ok {
				typ = sel.Sel
			}
			id, ok := typ.(*ast.Ident)
			return !ok || !id.IsExported()
		}
		f.Names = slices.DeleteFunc(f.Names, func(id *ast.Ident) bool { return !id.IsExported() })
		return len(f.Names) == 0
	})
}

// ledgerUsers returns the user packages a ledger line lists.
func ledgerUsers(line string) []string {
	_, users, ok := strings.Cut(line, "\tusers: ")
	if !ok || users == "none" {
		return nil
	}
	return strings.Split(users, ", ")
}

// apiLedger renders the ledger from the package's non-test sources and
// the non-test sources of every other package under the module root.
func apiLedger(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// oneLine prints an AST node and folds it onto one line.
	oneLine := func(n ast.Node) string {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(buf.String()), " ")
	}

	decls := map[string]string{}   // name -> declaration
	users := map[string][]string{} // package-level name -> user packages
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range roots {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, d := range parse(path).Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					name = recv.(*ast.Ident).Name + "." + name
				}
				if ast.IsExported(d.Name.Name) && (d.Recv == nil || ast.IsExported(strings.Split(name, ".")[0])) {
					decls[name] = oneLine(d.Type)
					if d.Recv == nil {
						users[name] = nil
					}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							exportedFields(s.Type)
							decls[s.Name.Name] = "type " + oneLine(s)
							users[s.Name.Name] = nil
						}
					case *ast.ValueSpec:
						for i, id := range s.Names {
							if !id.IsExported() {
								continue
							}
							decl := d.Tok.String() + " " + id.Name
							if s.Type != nil {
								decl += " " + oneLine(s.Type)
							}
							if i < len(s.Values) {
								decl += " = " + oneLine(s.Values[i])
							}
							decls[id.Name] = decl
							users[id.Name] = nil
						}
					}
				}
			}
		}
	}

	err = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f := parse(path)
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"hypermm"` {
				local = "hypermm"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					if u, ok := users[sel.Sel.Name]; ok && !slices.Contains(u, dir) {
						users[sel.Sel.Name] = append(u, dir)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	names := make([]string, 0, len(decls))
	for name := range decls {
		names = append(names, name)
	}
	slices.Sort(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "%s\t%s", name, decls[name])
		if u, ok := users[name]; ok {
			slices.Sort(u)
			list := strings.Join(u, ", ")
			if list == "" {
				list = "none"
			}
			fmt.Fprintf(&sb, "\tusers: %s", list)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
