// Command apisurface lists every exported name of a module's internal
// packages — top-level names and the methods of exported types — and says
// who references it from outside its own package:
//
//	prod    another package's non-test code
//	bench   only the benchmark module (bench/, its own go.mod)
//	iface   no program, but it is a method that satisfies an interface
//	test    only other packages' tests
//	unused  nothing (the package's own tests do not count)
//
// It also lists the unexported functions, methods and types that only their
// own package's tests reference (class seam: a test-only helper must be a
// reviewed line of the listing), and those that nothing references outside
// their own declaration (class unused). An unexported method that an
// interface needs is neither.
//
// Every exported field of an input struct — an exported struct type whose
// name ends in Config, Policy, Spec or Profile — is listed too, as a
// "field" line with the class of its writers: a composite-literal key, an
// assignment, an increment or a taken address, outside the declaring
// package's own non-test files (a default it fills in is not a caller):
//
//	prod    another package's non-test code
//	bench   only the benchmark module
//	test    only tests
//	unset   nothing
//
// The listing goes to api/<pkg>.txt, one "class name" line per name and
// then one "field class Type.Field" line per input field. It holds no
// counts, so a new call site does not change it. Run from the module root:
//
//	go run ./tools/apisurface           # rewrite api/
//	go run ./tools/apisurface -check    # fail if api/ is stale
//
// Both modes print a per-package summary and exit 1 when any name is
// unused or test, or any input field unset: an exported name only another
// package's test reaches gains a production caller, is unexported (an
// external test of its package gets it from an export_test.go) or is
// deleted, and a field no caller sets becomes a constant where it is read.
// -check also exits 1 when api/ differs from the listing.
//
// Packages are parsed and type-checked from source with the standard
// library alone: module packages by this loader, everything else by the
// "source" importer.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

func main() {
	check := flag.Bool("check", false, "compare api/ with the listing instead of rewriting it")
	flag.Parse()
	ok, err := run(".", *check, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apisurface:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// classes in the order a name is tested against them: the first that
// applies wins.
var classes = []string{"prod", "bench", "iface", "test", "unused", "seam"}

// writers are the classes of an input field, in the same first-wins order.
var writers = []string{"prod", "bench", "test", "unset"}

// inputSuffixes name the struct types whose exported fields are inputs.
var inputSuffixes = []string{"Config", "Policy", "Spec", "Profile"}

// entry is one listed name and its class. A field entry's class is "field"
// and its writer class is in writer.
type entry struct{ class, name, writer string }

// run lists root's surface, writes or checks root/api, prints the summary
// to w and reports whether the gate passes.
func run(root string, check bool, w io.Writer) (bool, error) {
	surf, err := surface(root)
	if err != nil {
		return false, err
	}
	apiDir := filepath.Join(root, "api")
	want := map[string]string{}
	for pkg, es := range surf {
		var b strings.Builder
		fmt.Fprintf(&b, "# %s — regenerate with: go run ./tools/apisurface\n", pkg)
		for _, e := range es {
			if e.class == "field" {
				fmt.Fprintf(&b, "field  %-6s %s\n", e.writer, e.name)
			} else {
				fmt.Fprintf(&b, "%-6s %s\n", e.class, e.name)
			}
		}
		want[apiFile(pkg)] = b.String()
	}
	ok := true
	if !check {
		if err := os.MkdirAll(apiDir, 0o755); err != nil {
			return false, err
		}
	}
	old, _ := filepath.Glob(filepath.Join(apiDir, "*.txt"))
	for _, f := range old {
		if _, listed := want[filepath.Base(f)]; listed {
			continue
		}
		if check {
			fmt.Fprintf(w, "apisurface: %s names no package\n", f)
			ok = false
		} else if err := os.Remove(f); err != nil {
			return false, err
		}
	}
	for _, name := range sortedKeys(want) {
		path := filepath.Join(apiDir, name)
		if !check {
			if err := os.WriteFile(path, []byte(want[name]), 0o644); err != nil {
				return false, err
			}
		} else if got, _ := os.ReadFile(path); string(got) != want[name] {
			fmt.Fprintf(w, "apisurface: api/%s is stale; run go run ./tools/apisurface\n", name)
			ok = false
		}
	}
	fmt.Fprintf(w, "%-24s %6s", "package", "names")
	for _, c := range classes {
		fmt.Fprintf(w, " %6s", c)
	}
	fmt.Fprintln(w)
	total, fieldTotal := map[string]int{}, map[string]int{}
	fields := map[string]map[string]int{}
	var refused []string
	for _, pkg := range sortedKeys(surf) {
		n, nf := map[string]int{}, map[string]int{}
		for _, e := range surf[pkg] {
			if e.class == "field" {
				nf[e.writer]++
				nf[""]++
				if e.writer == "unset" {
					refused = append(refused, pkg+"."+e.name+" is an input field nothing outside its package sets")
				}
				continue
			}
			n[e.class]++
			total[e.class]++
			switch e.class {
			case "unused":
				refused = append(refused, pkg+"."+e.name+" has no caller outside its package")
			case "test":
				refused = append(refused, pkg+"."+e.name+" is referenced only by other packages' tests")
			}
		}
		names := len(surf[pkg]) - n["seam"] - nf[""]
		printCounts(w, pkg, names, classes, n)
		total[""] += names
		if nf[""] > 0 {
			fields[pkg] = nf
			for c, k := range nf {
				fieldTotal[c] += k
			}
		}
	}
	printCounts(w, "total", total[""], classes, total)
	fmt.Fprintf(w, "\n%-24s %6s", "package", "fields")
	for _, c := range writers {
		fmt.Fprintf(w, " %6s", c)
	}
	fmt.Fprintln(w)
	for _, pkg := range sortedKeys(fields) {
		printCounts(w, pkg, fields[pkg][""], writers, fields[pkg])
	}
	printCounts(w, "total", fieldTotal[""], writers, fieldTotal)
	for _, r := range refused {
		fmt.Fprintln(w, "apisurface:", r)
	}
	return ok && len(refused) == 0, nil
}

func printCounts(w io.Writer, pkg string, names int, cols []string, n map[string]int) {
	fmt.Fprintf(w, "%-24s %6d", pkg, names)
	for _, c := range cols {
		fmt.Fprintf(w, " %6d", n[c])
	}
	fmt.Fprintln(w)
}

// apiFile names the listing of an internal package: internal/a/b → a-b.txt.
func apiFile(pkg string) string {
	return strings.ReplaceAll(strings.TrimPrefix(pkg, "internal/"), "/", "-") + ".txt"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// surface classifies every exported name of root's internal packages,
// keyed by package directory relative to root.
func surface(root string) (map[string][]entry, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	uses := map[types.Object]kinds{}
	wrote := map[string]kinds{}
	for _, m := range l.mods {
		dirs, err := packageDirs(m.dir)
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			if err := l.recordUses(m, dir, uses, wrote); err != nil {
				return nil, err
			}
		}
	}
	l.propagate(uses)
	ifaces := l.interfaces()
	rootMod := l.mods[len(l.mods)-1] // shortest path: the root module
	dirs, err := packageDirs(filepath.Join(rootMod.dir, "internal"))
	if err != nil {
		return nil, err
	}
	out := map[string][]entry{}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(rootMod.dir, dir)
		rel = filepath.ToSlash(rel)
		pkg, err := l.ImportFrom(rootMod.path+"/"+rel, dir, 0)
		if err != nil {
			return nil, err
		}
		var es []entry
		add := func(obj types.Object, name string, named *types.Named) {
			by := uses[obj]
			class := "unused"
			switch {
			case by&prod != 0:
				class = "prod"
			case by&bench != 0:
				class = "bench"
			case named != nil && satisfies(named, obj.Name(), ifaces):
				class = "iface"
			case by&test != 0:
				class = "test"
			}
			es = append(es, entry{class: class, name: name})
		}
		var fs []entry
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			add(obj, name, nil)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						add(m, name+"."+m.Name(), named)
					}
				}
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok && slices.ContainsFunc(inputSuffixes, func(s string) bool { return strings.HasSuffix(name, s) }) {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						by := wrote[l.fset.Position(f.Pos()).String()]
						fs = append(fs, entry{"field", name + "." + f.Name(), writerClass(by)})
					}
				}
			}
		}
		for _, c := range l.inner[rel] {
			switch {
			case c.by&prod != 0 || (c.named != nil && satisfies(c.named, c.obj.Name(), ifaces)):
			case c.by&test != 0:
				es = append(es, entry{class: "seam", name: c.name})
			default:
				es = append(es, entry{class: "unused", name: c.name})
			}
		}
		sort.Slice(es, func(i, j int) bool { return es[i].name < es[j].name })
		sort.Slice(fs, func(i, j int) bool { return fs[i].name < fs[j].name })
		es = append(es, fs...)
		if len(es) > 0 {
			out[rel] = es
		}
	}
	return out, nil
}

// writerClass is an input field's class from the kinds of file that set it.
func writerClass(by kinds) string {
	switch {
	case by&prod != 0:
		return "prod"
	case by&bench != 0:
		return "bench"
	case by&test != 0:
		return "test"
	}
	return "unset"
}

// kinds is the set of places an object is referenced from.
type kinds uint8

const (
	prod kinds = 1 << iota
	bench
	test
)

// propagate lets a reference reach the types it hands over: a named type
// counts as referenced from wherever a referenced function, method,
// variable or field mentions it, or a referenced method or field belongs
// to it, and so do the types of a referenced struct type's exported fields.
// A caller that holds a value of a type uses the type without naming it.
func (l *loader) propagate(uses map[types.Object]kinds) {
	owner := map[*types.Var]*types.TypeName{}
	for _, p := range l.pkgs {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						owner[st.Field(i)] = tn
					}
				}
			}
		}
	}
	var work []types.Object
	for obj := range uses {
		work = append(work, obj)
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		k := uses[obj]
		mark := func(tn *types.TypeName) {
			if _, own := l.pkgs[tn.Pkg().Path()]; own && uses[tn]|k != uses[tn] {
				uses[tn] |= k
				work = append(work, tn)
			}
		}
		switch o := obj.(type) {
		case *types.TypeName:
			if st, ok := o.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						namedIn(f.Type(), mark)
					}
				}
			}
		case *types.Var:
			namedIn(o.Type(), mark)
			if tn := owner[o.Origin()]; tn != nil {
				mark(tn)
			}
		default:
			namedIn(obj.Type(), mark)
		}
	}
}

// namedIn calls f with every named type t mentions, without looking
// inside a named type.
func namedIn(t types.Type, f func(*types.TypeName)) {
	switch t := t.(type) {
	case *types.Named:
		if t.Obj().Pkg() != nil {
			f(t.Origin().Obj())
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			namedIn(t.TypeArgs().At(i), f)
		}
	case *types.Pointer:
		namedIn(t.Elem(), f)
	case *types.Slice:
		namedIn(t.Elem(), f)
	case *types.Array:
		namedIn(t.Elem(), f)
	case *types.Chan:
		namedIn(t.Elem(), f)
	case *types.Map:
		namedIn(t.Key(), f)
		namedIn(t.Elem(), f)
	case *types.Signature:
		if t.Recv() != nil {
			namedIn(t.Recv().Type(), f)
		}
		namedIn(t.Params(), f)
		namedIn(t.Results(), f)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			namedIn(t.At(i).Type(), f)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			namedIn(t.Field(i).Type(), f)
		}
	}
}

// satisfies reports whether method of t is needed by an interface t or *t
// implements.
func satisfies(t *types.Named, method string, ifaces []*types.Interface) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// module is one go.mod: the root module or the benchmark module beside it.
type module struct{ path, dir string }

// loader type-checks module packages from source, once each, without test
// files, and hands every other import to the standard source importer.
type loader struct {
	fset *token.FileSet
	mods []module // longest path first, so campuslab/bench wins over campuslab
	std  types.ImporterFrom
	pkgs map[string]*types.Package
	// roots are the packages recordUses type-checked: with pkgs, the start
	// of the walk for the interfaces a method may satisfy.
	roots []*types.Package
	// inner holds each internal package's unexported names (innerUses).
	inner map[string]map[types.Object]*unexported
}

// unexported is one unexported name, with the kinds of file that reference
// it outside its own declaration (a type's methods are part of it).
type unexported struct {
	name  string
	obj   types.Object
	named *types.Named // the receiver's type, for a method
	by    kinds
}

func newLoader(root string) (*loader, error) {
	fset := token.NewFileSet()
	l := &loader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:  map[string]*types.Package{},
		inner: map[string]map[types.Object]*unexported{},
	}
	for _, dir := range []string{filepath.Join(root, "bench"), root} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if os.IsNotExist(err) && dir != root {
			continue
		}
		if err != nil {
			return nil, err
		}
		path := ""
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
				path = f[1]
			}
		}
		if path == "" {
			return nil, fmt.Errorf("%s/go.mod names no module", dir)
		}
		l.mods = append(l.mods, module{path, dir})
	}
	return l, nil
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	dir, ok := l.dirOf(path)
	if !ok {
		return l.std.ImportFrom(path, srcDir, mode)
	}
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	files, err := l.parse(dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files.lib, nil)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

func (l *loader) dirOf(path string) (string, bool) {
	for _, m := range l.mods {
		if path == m.path {
			return m.dir, true
		}
		if rest, ok := strings.CutPrefix(path, m.path+"/"); ok {
			return filepath.Join(m.dir, filepath.FromSlash(rest)), true
		}
	}
	return "", false
}

// files are one directory's Go files that match the build context: the
// package itself, its in-package tests and its external (_test) package.
type files struct{ lib, intest, xtest []*ast.File }

func (l *loader) parse(dir string) (files, error) {
	var fs files
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fs, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return fs, err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			fs.lib = append(fs.lib, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			fs.xtest = append(fs.xtest, f)
		default:
			fs.intest = append(fs.intest, f)
		}
	}
	return fs, nil
}

// recordUses type-checks the package in dir with its tests and marks every
// object of another module package that it references, by the kind of file
// the reference is in, and every module struct field it writes (keyed by
// the field's declaring position: the package's own test build declares
// its fields again).
func (l *loader) recordUses(m module, dir string, uses map[types.Object]kinds, wrote map[string]kinds) error {
	fs, err := l.parse(dir)
	if err != nil {
		return err
	}
	rel, _ := filepath.Rel(m.dir, dir)
	path := m.path
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	kindAt := func(pos token.Pos) kinds {
		switch {
		case m != l.mods[len(l.mods)-1]:
			return bench
		case strings.HasSuffix(l.fset.File(pos).Name(), "_test.go"):
			return test
		}
		return prod
	}
	mark := func(files []*ast.File, info *types.Info) {
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if obj.Pkg() == nil || obj.Pkg().Path() == path {
				continue
			}
			if _, ok := l.pkgs[obj.Pkg().Path()]; !ok {
				continue
			}
			uses[obj] |= kindAt(id.Pos())
		}
		fieldWrites(files, info, func(id *ast.Ident, f *types.Var) {
			if k := kindAt(id.Pos()); k != prod || f.Pkg() == nil || f.Pkg().Path() != path {
				wrote[l.fset.Position(f.Pos()).String()] |= k
			}
		})
	}
	self := (*types.Package)(nil)
	if len(fs.lib)+len(fs.intest) > 0 {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: l}
		self, err = conf.Check(path, l.fset, append(fs.lib, fs.intest...), info)
		if err != nil {
			return err
		}
		l.roots = append(l.roots, self)
		mark(append(fs.lib, fs.intest...), info)
		if m == l.mods[len(l.mods)-1] && strings.HasPrefix(rel, "internal"+string(filepath.Separator)) {
			l.inner[filepath.ToSlash(rel)] = innerUses(l.fset, fs.lib, info)
		}
	}
	if len(fs.xtest) > 0 {
		// The external test package sees this package with its test files,
		// while the packages it also imports see it without them: the two
		// can disagree on a type, so type errors here are not fatal.
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: withSelf{l, self}, Error: func(error) {}}
		xpkg, _ := conf.Check(path+"_test", l.fset, fs.xtest, info)
		l.roots = append(l.roots, xpkg)
		mark(fs.xtest, info)
	}
	return nil
}

// fieldWrites calls f for every struct field files write: a composite
// literal's key, the left side of an assignment or increment, or the
// operand of &. (go vet refuses unkeyed literals of another package's
// structs, so a key is how a caller sets a field in a literal.)
func fieldWrites(files []*ast.File, info *types.Info, f func(*ast.Ident, *types.Var)) {
	field := func(id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			f(id, v.Origin())
		}
	}
	selector := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			field(sel.Sel)
		}
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					selector(e)
				}
			case *ast.IncDecStmt:
				selector(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					selector(n.X)
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							field(id)
						}
					}
				}
			}
			return true
		})
	}
}

// withSelf resolves a package's own path to its test build.
type withSelf struct {
	*loader
	self *types.Package
}

func (w withSelf) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if w.self != nil && path == w.self.Path() {
		return w.self, nil
	}
	return w.loader.ImportFrom(path, srcDir, mode)
}

// interfaces returns every interface with methods that a loaded package
// declares — exported or not in module packages, exported elsewhere — and
// error.
func (l *loader) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		_, own := l.pkgs[p.Path()]
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || (!own && !tn.Exported()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, path := range sortedKeys(l.pkgs) {
		walk(l.pkgs[path])
	}
	for _, p := range l.roots {
		walk(p)
	}
	return out
}

// packageDirs lists the directories under dir holding Go files, skipping
// testdata, hidden directories and nested modules.
func packageDirs(dir string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(p, "go.mod")); p != dir && err == nil {
			return filepath.SkipDir
		}
		if gofiles, _ := filepath.Glob(filepath.Join(p, "*.go")); len(gofiles) > 0 {
			dirs = append(dirs, p)
		}
		return nil
	})
	return dirs, err
}

// innerUses lists the unexported functions, methods and types that files
// declare and marks where info says the package refers to each, skipping
// references inside the name's own declaration.
func innerUses(fset *token.FileSet, files []*ast.File, info *types.Info) map[types.Object]*unexported {
	type span struct{ from, to token.Pos }
	decl := map[types.Object][]span{}
	byObj := map[types.Object]*unexported{}
	add := func(id *ast.Ident, named *types.Named, sp span) {
		obj := info.Defs[id]
		decl[obj] = append(decl[obj], sp)
		if !id.IsExported() && id.Name != "_" {
			name := id.Name
			if named != nil {
				name = named.Obj().Name() + "." + name
			}
			byObj[obj] = &unexported{name: name, obj: obj, named: named}
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				sp := span{d.Pos(), d.End()}
				var named *types.Named
				if d.Recv != nil {
					recv := info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					named = recv.(*types.Named)
					decl[named.Obj()] = append(decl[named.Obj()], sp)
				} else if d.Name.Name == "init" {
					continue
				}
				add(d.Name, named, sp)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						add(ts.Name, nil, span{ts.Pos(), ts.End()})
					}
				}
			}
		}
	}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		u := byObj[obj]
		if u == nil || slices.ContainsFunc(decl[obj], func(s span) bool { return s.from <= id.Pos() && id.Pos() < s.to }) {
			continue
		}
		if strings.HasSuffix(fset.File(id.Pos()).Name(), "_test.go") {
			u.by |= test
		} else {
			u.by |= prod
		}
	}
	return byObj
}
