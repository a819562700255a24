package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked (non-test) package of the
// module, ready for analysis.
type Package struct {
	// Path is the package's import path (e.g. "specinfer/internal/tree").
	Path string
	// ModulePath is the module path from go.mod (e.g. "specinfer").
	ModulePath string
	// Dir is the directory the package was loaded from ("" for LoadSource).
	Dir string
	// Fset resolves token.Pos values for Files.
	Fset *token.FileSet
	// Files holds the parsed non-test source files, in filename order.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info records the type-checker's findings for Files.
	Info *types.Info
}

// FindModuleRoot walks up from dir until it finds a go.mod, returning the
// containing directory.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// modulePathOf extracts the module path from dir/go.mod.
func modulePathOf(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", dir)
}

// loader type-checks module packages on demand, resolving module-internal
// imports from source and everything else (the stdlib) through the
// compiler-independent "source" importer.
type loader struct {
	fset       *token.FileSet
	moduleDir  string
	modulePath string
	std        types.ImporterFrom
	pkgs       map[string]*Package // by import path
	loading    map[string]bool     // import-cycle guard
}

// Load parses and type-checks the non-test packages of the module rooted
// at moduleDir that match patterns. A pattern is either a directory
// (relative patterns resolve against moduleDir) or a directory followed by
// "/..." meaning the whole subtree; the default pattern is "./...".
// Directories named testdata and hidden directories are skipped.
func Load(moduleDir string, patterns ...string) ([]*Package, error) {
	moduleDir, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modulePath, err := modulePathOf(moduleDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:       fset,
		moduleDir:  moduleDir,
		modulePath: modulePath,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}

	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		expanded, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}

	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// expand resolves one pattern to a list of package directories.
func (l *loader) expand(pat string) ([]string, error) {
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = rest
		if pat == "" || pat == "." {
			pat = l.moduleDir
		}
	}
	if !filepath.IsAbs(pat) {
		pat = filepath.Join(l.moduleDir, pat)
	}
	if !recursive {
		return []string{pat}, nil
	}
	var dirs []string
	err := filepath.WalkDir(pat, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != pat && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains non-test .go files.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true
		}
	}
	return false
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// importPathOf maps a directory inside the module to its import path.
func (l *loader) importPathOf(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: directory %s is outside module %s", dir, l.moduleDir)
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// dirOf maps a module import path back to its directory.
func (l *loader) dirOf(path string) string {
	if path == l.modulePath {
		return l.moduleDir
	}
	rel := strings.TrimPrefix(path, l.modulePath+"/")
	return filepath.Join(l.moduleDir, filepath.FromSlash(rel))
}

// loadDir parses and type-checks the package in dir (memoized). Returns
// (nil, nil) when the directory holds no non-test Go files.
func (l *loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathOf(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		// Honor build constraints (file-name GOOS/GOARCH suffixes and
		// //go:build lines) the way the go command does for this host, so
		// a package's per-architecture variants are not checked together.
		match, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, err
		}
		if match {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	pkg, info, err := check(path, l.fset, files, l)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{
		Path:       path,
		ModulePath: l.modulePath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}
	l.pkgs[path] = p
	return p, nil
}

// Import resolves an import encountered while type-checking: module
// packages load recursively from source, everything else is assumed to be
// stdlib and delegates to the source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.loadDir(l.dirOf(path))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", path)
		}
		return pkg.Pkg, nil
	}
	return l.std.Import(path)
}

// check runs the type-checker over one package's files.
func check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}
