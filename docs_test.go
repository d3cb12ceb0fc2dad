package mcnet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// proseDocs are the Markdown files whose inline code names Go identifiers.
var proseDocs = []string{"README.md", "bench/README.md", ".claude/skills/verify/SKILL.md"}

var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	// qualifiedRef matches pkg.Name and pkg.Name.Member, with Name and
	// Member exported.
	qualifiedRef = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
)

// TestDocIdentifiersResolve keeps the docs from naming code that is gone:
// every backticked pkg.Name or pkg.Name.Member in proseDocs, where pkg is a
// package of this repository, must resolve to a declaration in its non-test
// Go files (a top-level name, or a method, struct field or interface
// method of type Name).
func TestDocIdentifiersResolve(t *testing.T) {
	decls := repoDecls(t)
	checked := 0
	for _, doc := range proseDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fencedBlock.ReplaceAllString(string(raw), "")
		for _, span := range codeSpan.FindAllStringSubmatch(text, -1) {
			for _, m := range qualifiedRef.FindAllStringSubmatch(span[1], -1) {
				names, ok := decls[m[1]]
				if !ok {
					continue // not a package of this repository
				}
				ref := m[2]
				if m[3] != "" {
					ref += "." + m[3]
				}
				checked++
				if !names[ref] {
					t.Errorf("%s: `%s` names %s.%s, which no Go file declares", doc, span[1], m[1], ref)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no package-qualified identifiers found in the docs: the scan is broken")
	}
}

// repoDecls maps each package name in the repository (package main
// excepted) to its declared names: top-level identifiers as "Name", and
// methods, struct fields and interface methods as "Type.Member".
func repoDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		names := decls[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			decls[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			addDecl(names, decl)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

func addDecl(names map[string]bool, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			names[d.Name.Name] = true
			return
		}
		typ := d.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		switch g := typ.(type) {
		case *ast.IndexExpr:
			typ = g.X
		case *ast.IndexListExpr:
			typ = g.X
		}
		if id, ok := typ.(*ast.Ident); ok {
			names[id.Name+"."+d.Name.Name] = true
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for _, id := range s.Names {
					names[id.Name] = true
				}
			case *ast.TypeSpec:
				names[s.Name.Name] = true
				var fields *ast.FieldList
				switch typ := s.Type.(type) {
				case *ast.StructType:
					fields = typ.Fields
				case *ast.InterfaceType:
					fields = typ.Methods
				}
				if fields == nil {
					continue
				}
				for _, field := range fields.List {
					for _, id := range field.Names {
						names[s.Name.Name+"."+id.Name] = true
					}
				}
			}
		}
	}
}
