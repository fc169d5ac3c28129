package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded Go package: parsed syntax plus complete type
// information established by whole-program, dependency-ordered checking.
type Package struct {
	// Dir is the directory as given (possibly relative) for requested
	// packages, or the module-rooted directory for dependencies pulled in
	// for type information only.
	Dir string
	// Path is the import path when the directory sits inside a module,
	// otherwise the cleaned directory path.
	Path string
	// Name is the package clause name of the first file.
	Name string
	// Fset positions all Files. It is shared by every package of a Load.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Info holds the full type information (Types, Defs, Uses,
	// Selections, Implicits, Instances) for this package's syntax. The
	// map is shared program-wide, so cross-package objects resolve to the
	// real declarations, never stubs.
	Info *types.Info
	// Types is the type-checked package object.
	Types *types.Package

	// repoImports are the module-internal import paths of this package,
	// used for dependency ordering.
	repoImports []string
}

// Program is the result of a whole-program Load: the requested packages
// plus the module-internal dependency closure, all type-checked against
// each other in dependency order.
type Program struct {
	// Fset positions every file in the program.
	Fset *token.FileSet
	// Info is the program-wide type information, shared by every Package.
	Info *types.Info
	// Packages are the pattern-matched packages, sorted by directory.
	// Rules run over these.
	Packages []*Package
	// All is the full closure (requested + dependencies) in dependency
	// order: a package appears after everything it imports.
	All []*Package
	// Module is the module path ("" when loading outside a module).
	Module string
	// ModuleDir is the module root directory.
	ModuleDir string

	// byPath indexes All by import path.
	byPath map[string]*Package
}

// PackageOf returns the loaded package with the given import path, or nil.
func (prog *Program) PackageOf(path string) *Package { return prog.byPath[path] }

// Load parses and type-checks the packages matched by patterns, plus
// every module-internal package they (transitively) import. Patterns
// follow the go tool's shape: a directory ("./internal/shmem"), or a
// directory with a /... suffix ("./...") meaning the directory and
// everything below it. Directories named testdata, and directories whose
// name starts with "." or "_", are never matched by /... (exactly like
// the go tool); naming such a directory explicitly loads it. Test files
// (_test.go) are always skipped. Directories containing no buildable Go
// files are skipped silently under /..., but naming one explicitly is an
// error.
//
// Unlike a permissive syntax loader, Load fails when any loaded package
// does not type-check: the analyzers depend on complete cross-package
// type information (Uses/Defs/Selections resolving to real objects), so
// a package that does not compile cannot be analyzed honestly.
func Load(patterns []string) (*Program, error) {
	dirs, explicit, err := expand(patterns)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset: token.NewFileSet(),
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Instances:  make(map[*ast.Ident]types.Instance),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
		byPath: make(map[string]*Package),
	}

	// Parse the requested directories.
	byAbs := make(map[string]*Package)
	var all []*Package
	for _, dir := range dirs {
		pkg, err := parseDir(prog, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			if explicit[dir] {
				return nil, fmt.Errorf("analysis: no Go files in %s", dir)
			}
			continue
		}
		abs, _ := filepath.Abs(dir)
		byAbs[abs] = pkg
		all = append(all, pkg)
		prog.Packages = append(prog.Packages, pkg)
		if prog.Module == "" {
			prog.Module, prog.ModuleDir = moduleOf(dir)
		}
	}

	// Pull in the module-internal dependency closure.
	for i := 0; i < len(all); i++ { // all grows during the loop
		pkg := all[i]
		for _, imp := range packageImports(pkg) {
			if prog.Module == "" || !isUnder(imp, prog.Module) {
				continue
			}
			pkg.repoImports = append(pkg.repoImports, imp)
			rel := strings.TrimPrefix(strings.TrimPrefix(imp, prog.Module), "/")
			depDir := filepath.Join(prog.ModuleDir, filepath.FromSlash(rel))
			abs, _ := filepath.Abs(depDir)
			if byAbs[abs] != nil {
				continue
			}
			dep, err := parseDir(prog, depDir)
			if err != nil {
				return nil, fmt.Errorf("analysis: loading dependency %s: %w", imp, err)
			}
			if dep == nil {
				return nil, fmt.Errorf("analysis: dependency %s (%s) has no Go files", imp, depDir)
			}
			byAbs[abs] = dep
			all = append(all, dep)
		}
	}

	ordered, err := dependencyOrder(all)
	if err != nil {
		return nil, err
	}
	prog.All = ordered
	for _, p := range ordered {
		prog.byPath[p.Path] = p
	}

	if err := typeCheck(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// expand resolves patterns to a sorted, de-duplicated directory list.
// explicit marks directories that were named directly (not via /...).
func expand(patterns []string) (dirs []string, explicit map[string]bool, err error) {
	seen := make(map[string]bool)
	explicit = make(map[string]bool)
	add := func(dir string, isExplicit bool) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		if isExplicit {
			explicit[dir] = true
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := filepath.Clean(rest)
			if rest == "" {
				root = "."
			}
			walkErr := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				add(path, false)
				return nil
			})
			if walkErr != nil {
				return nil, nil, fmt.Errorf("analysis: expanding %s: %w", pat, walkErr)
			}
			continue
		}
		fi, statErr := os.Stat(pat)
		if statErr != nil {
			return nil, nil, fmt.Errorf("analysis: %w", statErr)
		}
		if !fi.IsDir() {
			return nil, nil, fmt.Errorf("analysis: %s is not a directory", pat)
		}
		add(pat, true)
	}
	sort.Strings(dirs)
	return dirs, explicit, nil
}

// parseDir parses one directory as a package into prog's shared FileSet.
// Returns (nil, nil) when the directory holds no non-test Go files.
func parseDir(prog *Program, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(prog.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	return &Package{
		Dir:   dir,
		Path:  importPath(dir),
		Name:  files[0].Name.Name,
		Fset:  prog.Fset,
		Files: files,
		Info:  prog.Info,
	}, nil
}

// packageImports returns the de-duplicated import paths of pkg's files.
func packageImports(pkg *Package) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// isUnder reports whether the import path p is the module path mod or
// lies under it.
func isUnder(p, mod string) bool {
	return p == mod || strings.HasPrefix(p, mod+"/")
}

// dependencyOrder topologically sorts pkgs so that every package appears
// after all module-internal packages it imports.
func dependencyOrder(pkgs []*Package) ([]*Package, error) {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	state := make(map[*Package]int) // 0 unvisited, 1 visiting, 2 done
	var out []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", p.Path)
		case 2:
			return nil
		}
		state[p] = 1
		for _, imp := range p.repoImports {
			if dep := byPath[imp]; dep != nil {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p] = 2
		out = append(out, p)
		return nil
	}
	// Deterministic order: visit by import path.
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for _, p := range sorted {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// typeCheck checks every package of prog in dependency order, feeding
// each check the already-checked module-internal packages, so every
// cross-package selector resolves to its real object.
func typeCheck(prog *Program) error {
	imp := &progImporter{prog: prog}
	var errs []error
	for _, pkg := range prog.All {
		var pkgErrs []error
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				pkgErrs = append(pkgErrs, err)
			},
		}
		tpkg, _ := conf.Check(pkg.Path, prog.Fset, pkg.Files, prog.Info)
		pkg.Types = tpkg
		if len(pkgErrs) > 0 {
			// Report a bounded number of errors per package: the first
			// few identify the problem, the rest are usually cascade.
			const maxPerPkg = 5
			if len(pkgErrs) > maxPerPkg {
				pkgErrs = append(pkgErrs[:maxPerPkg],
					fmt.Errorf("%s: ... and %d more errors", pkg.Path, len(pkgErrs)-maxPerPkg))
			}
			errs = append(errs, pkgErrs...)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("analysis: type checking failed (the analyzers need complete type information):\n%w", errors.Join(errs...))
	}
	return nil
}

// The non-module (stdlib) importer is shared process-wide, not
// per-Load: importer instances cache the packages they produce, and two
// instances yield two distinct *types.Package objects for the same path
// — a "time.Duration is not time.Duration" identity clash when one Load
// imports time directly and a later Load's net/http pulls in its own.
// Export data does not change under us, so one instance (plus the cache
// fronting it, which also spares repeated export-data reads across the
// golden tests) is both correct and fast.
var (
	stdImportCache sync.Map // import path -> *types.Package
	stdImporterOne sync.Once
	stdImporter    types.Importer
	srcImporterOne sync.Once
	srcImporter    types.Importer
	srcImporterFst *token.FileSet
)

// progImporter resolves imports during the dependency-ordered check:
// module-internal paths come from the already-checked program packages,
// everything else from the toolchain's export data (with a from-source
// fallback so the loader keeps working without compiled artifacts).
type progImporter struct {
	prog *Program
}

func (imp *progImporter) Import(path string) (*types.Package, error) {
	if imp.prog.Module != "" && isUnder(path, imp.prog.Module) {
		if p := imp.prog.byPath[path]; p != nil && p.Types != nil {
			return p.Types, nil
		}
		return nil, fmt.Errorf("module-internal package %s was not loaded (dependency ordering bug?)", path)
	}
	if cached, ok := stdImportCache.Load(path); ok {
		return cached.(*types.Package), nil
	}
	stdImporterOne.Do(func() { stdImporter = importer.Default() })
	p, err := stdImporter.Import(path)
	if err != nil {
		// The source importer needs a FileSet; the process-wide instance
		// keeps its own so stdlib object identity stays consistent across
		// Loads (positions inside stdlib sources are never reported).
		srcImporterOne.Do(func() {
			srcImporterFst = token.NewFileSet()
			srcImporter = importer.ForCompiler(srcImporterFst, "source", nil)
		})
		var srcErr error
		p, srcErr = srcImporter.Import(path)
		if srcErr != nil {
			return nil, fmt.Errorf("importing %s: %v (source fallback: %v)", path, err, srcErr)
		}
	}
	stdImportCache.Store(path, p)
	return p, nil
}

// moduleOf locates the enclosing go.mod of dir and returns its module
// path and root directory ("", "" when dir is not inside a module).
func moduleOf(dir string) (modPath, modRoot string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", ""
	}
	for root := abs; ; {
		data, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			if mod := modulePath(string(data)); mod != "" {
				return mod, root
			}
		}
		parent := filepath.Dir(root)
		if parent == root {
			return "", ""
		}
		root = parent
	}
}

// importPath derives the package's import path by locating the enclosing
// go.mod. Falls back to the cleaned directory when no module is found.
func importPath(dir string) string {
	mod, root := moduleOf(dir)
	if mod == "" {
		return filepath.ToSlash(filepath.Clean(dir))
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return filepath.ToSlash(filepath.Clean(dir))
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil {
		return filepath.ToSlash(filepath.Clean(dir))
	}
	if rel == "." {
		return mod
	}
	return mod + "/" + filepath.ToSlash(rel)
}

// modulePath extracts the module path from go.mod content.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}
