// Command deadapi is the dead-API gate: it lists every exported identifier
// of a module's internal packages that no non-test file of the scanned
// modules references, and fails unless each one is on the allowlist.
//
//	go run ./scripts/deadapi -allow scripts/deadapi/allowlist.txt . benchmark
//
// Each argument is a module root (a directory holding go.mod); the first
// module's packages and every later one's are type-checked together, so a
// reference from any of them counts. Packages outside internal/ (the
// library's public API, the commands, the examples) are roots of the scan:
// their references count and their own exports are not checked. A method
// whose receiver type satisfies an interface with a method of that name
// counts as referenced, since a call through the interface (fmt calling
// String, errors calling Unwrap, a cache calling its tier) names no
// concrete method. Struct fields are not checked.
//
// An allowlist line is `<import path>.<Name> <Test>` (a method is
// `<import path>.<Type>.<Name>`) naming the test that needs the kept
// name; blank lines and lines starting with # are ignored. An entry whose
// name is referenced or no longer exists is stale and fails the gate too,
// and so does one whose test no _test.go file of the modules declares.
//
// Exit status: 0 when the list matches the allowlist, 1 when it does not
// (each offending name is printed), 2 when the modules do not load.
// Run it from the repository root: standard-library packages are
// type-checked from source through go/build.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("deadapi", flag.ContinueOnError)
	flags.SetOutput(stderr)
	allowPath := flags.String("allow", "", "allowlist `file`: one '<import path>.<Name> <Test>' line per kept name")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	roots := flags.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	allow := map[string]string{}
	if *allowPath != "" {
		var err error
		if allow, err = readAllow(*allowPath); err != nil {
			fmt.Fprintln(stderr, "deadapi:", err)
			return 2
		}
	}
	exports, tests, err := scan(roots)
	if err != nil {
		fmt.Fprintln(stderr, "deadapi:", err)
		return 2
	}
	problems := compare(exports, tests, allow)
	for _, p := range problems {
		fmt.Fprintln(stdout, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(stdout, "deadapi: %d problem(s); delete each unreferenced export, or allowlist it with the test that needs it\n", len(problems))
		return 1
	}
	return 0
}

// export is one checked exported identifier.
type export struct {
	pos  token.Position
	used bool
}

// compare reports each unreferenced export that is not allowlisted, and
// each allowlist entry that names a referenced or missing identifier or a
// test that does not exist, in name order.
func compare(exports map[string]*export, tests map[string]bool, allow map[string]string) []string {
	var problems []string
	for _, name := range sortedKeys(exports) {
		e := exports[name]
		if _, ok := allow[name]; !ok && !e.used {
			problems = append(problems, fmt.Sprintf("%s: unreferenced export %s", e.pos, name))
		}
	}
	for _, name := range sortedKeys(allow) {
		e, ok := exports[name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("stale allowlist entry %s (%s): no such exported identifier", name, allow[name]))
		case e.used:
			problems = append(problems, fmt.Sprintf("stale allowlist entry %s (%s): referenced by a non-test file", name, allow[name]))
		case !tests[allow[name]]:
			problems = append(problems, fmt.Sprintf("stale allowlist entry %s: no test %s", name, allow[name]))
		}
	}
	return problems
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readAllow(file string) (map[string]string, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || !strings.HasPrefix(fields[1], "Test") {
			return nil, fmt.Errorf("%s:%d: want '<import path>.<Name> <Test>', got %q", file, n, line)
		}
		allow[fields[0]] = fields[1]
	}
	return allow, sc.Err()
}

// pkg is one package of a scanned module: its non-test files, and its
// type information once checked.
type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the scanned modules' packages itself, so that every
// reference resolves to the one object it names, and imports everything
// else (the standard library) from source.
type loader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*pkg
	tests map[string]bool // Test functions the modules' _test.go files declare
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	if err := l.check(p); err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) check(p *pkg) error {
	if p.types != nil {
		return nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(p.path, l.fset, p.files, p.info)
	if err != nil {
		return fmt.Errorf("type-check %s: %w", p.path, err)
	}
	p.types = tp
	return nil
}

// scan loads the modules at roots and returns the exported identifiers of
// their internal packages, keyed by qualified name, each marked used if a
// non-test file references it, and the names of the modules' tests.
func scan(roots []string) (map[string]*export, map[string]bool, error) {
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*pkg{}, tests: map[string]bool{}}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	for _, root := range roots {
		if err := l.addModule(root); err != nil {
			return nil, nil, err
		}
	}
	for _, path := range sortedKeys(l.pkgs) {
		if err := l.check(l.pkgs[path]); err != nil {
			return nil, nil, err
		}
	}

	used := map[types.Object]bool{}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
	}
	ifaces, err := l.interfaces()
	if err != nil {
		return nil, nil, err
	}
	exports := map[string]*export{}
	for _, p := range l.pkgs {
		if !isInternal(p.path) {
			continue
		}
		for id, obj := range p.info.Defs {
			if obj == nil || !id.IsExported() {
				continue
			}
			name, ok := qualified(p.types, obj)
			if !ok {
				continue
			}
			exports[name] = &export{
				pos:  l.fset.Position(id.Pos()),
				used: used[obj] || satisfies(obj, ifaces),
			}
		}
	}
	return exports, l.tests, nil
}

// qualified names a package-level object or a method declared in pkg, and
// reports false for anything else (fields, locals, interface methods).
func qualified(pkg *types.Package, obj types.Object) (string, bool) {
	if obj.Parent() == pkg.Scope() {
		return pkg.Path() + "." + obj.Name(), true
	}
	if named := receiver(obj); named != nil {
		return pkg.Path() + "." + named.Obj().Name() + "." + obj.Name(), true
	}
	return "", false
}

// receiver returns the named type obj is a method of, or nil when obj is
// not a method or is an interface's.
func receiver(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// origin maps a use of an instantiated generic function, method or field
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// satisfies reports whether obj is a method whose receiver type (or a
// pointer to it) implements an interface that has a method of its name.
func satisfies(obj types.Object, ifaces map[string][]*types.Interface) bool {
	named := receiver(obj)
	if named == nil {
		return false
	}
	for _, iface := range ifaces[obj.Name()] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// protocols are interfaces the standard library checks for with
// unexported or literal interface types, so no named type lists them.
const protocols = `package protocols

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// interfaces indexes by method name every interface the scan can see: the
// named and literal ones of the scanned packages, the named ones of every
// standard-library package they import, error, and the protocols above.
func (l *loader) interfaces() (map[string][]*types.Interface, error) {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	addScope := func(p *types.Package) {
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !isGeneric(tn) {
				add(tn.Type())
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	f, err := parser.ParseFile(l.fset, "protocols.go", protocols, 0)
	if err != nil {
		return nil, err
	}
	proto, err := (&types.Config{}).Check("protocols", l.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	addScope(proto)
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, own := l.pkgs[p.Path()]; !own {
			addScope(p)
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byName, nil
}

func isGeneric(tn *types.TypeName) bool {
	named, ok := tn.Type().(*types.Named)
	return ok && named.TypeParams().Len() > 0
}

func isInternal(importPath string) bool {
	return strings.HasPrefix(importPath, "internal/") || strings.Contains(importPath, "/internal/")
}

// addModule parses the non-test files of every package of the module at
// root, skipping testdata, hidden directories and nested modules, and
// records the tests its _test.go files declare.
func (l *loader) addModule(root string) error {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return err
	}
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		for _, name := range append(bp.TestGoFiles, bp.XTestGoFiles...) {
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				l.tests[string(m[1])] = true
			}
		}
		p := &pkg{path: path.Join(modPath, filepath.ToSlash(rel))}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		l.pkgs[p.path] = p
		return nil
	})
}

// testFunc matches a test function's declaration.
var testFunc = regexp.MustCompile(`(?m)^func (Test\w*)\(`)

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
