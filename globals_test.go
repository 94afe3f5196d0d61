package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowedPackageVars are the package-level variables the simulation
// packages may declare: read-only name tables and environment switches
// read once at start-up. Anything else is state shared by every run in
// the process, which breaks the same-seed-same-bytes contract as soon as
// two runs share a process (one such counter once leaked run order into
// lock IDs).
var allowedPackageVars = map[string]bool{
	"kindNames":     true, // internal/fault: event kind names
	"tCrit05":       true, // internal/stats: t-distribution critical values
	"phaseNames":    true, // internal/obs/reqtrace: latency phase names
	"argKeyNames":   true, // internal/obs: trace argument key names
	"patternNames":  true, // internal/arrival: arrival pattern names
	"bruteSnoopEnv": true, // internal/coherence: COHERENCE_BRUTE_SNOOP
	"sanitizeEnv":   true, // internal/coherence: COHERENCE_SANITIZE
}

// packageVars lists "file:line name" for every package-level var declared
// in the non-test Go files under root, skipping nested testdata
// directories (the go tool does not build them).
func packageVars(root string) ([]string, error) {
	var found []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && d.Name() == "testdata" {
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
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if name.Name != "_" {
						found = append(found, fset.Position(name.Pos()).String()+" "+name.Name)
					}
				}
			}
		}
		return nil
	})
	sort.Strings(found)
	return found, err
}

// disallowed filters packageVars output down to the names not allowlisted.
func disallowed(found []string) []string {
	var bad []string
	for _, f := range found {
		if !allowedPackageVars[f[strings.LastIndexByte(f, ' ')+1:]] {
			bad = append(bad, f)
		}
	}
	return bad
}

// TestNoMutablePackageState audits every non-test Go file under internal/
// for package-level variables outside the allowlist.
func TestNoMutablePackageState(t *testing.T) {
	found, err := packageVars("internal")
	if err != nil {
		t.Fatal(err)
	}
	if len(found) < len(allowedPackageVars) {
		t.Fatalf("audit saw %d package-level vars, fewer than the %d allowlisted: is it reading the tree?", len(found), len(allowedPackageVars))
	}
	for _, f := range disallowed(found) {
		t.Errorf("package-level var %s: move it into the type that owns it, or allowlist a read-only table here", f)
	}
}

// TestPackageStateAuditFires runs the audit on a fixture that declares a
// mutable process-wide counter next to an allowlisted table.
func TestPackageStateAuditFires(t *testing.T) {
	found, err := packageVars("testdata/globalstate")
	if err != nil {
		t.Fatal(err)
	}
	bad := disallowed(found)
	if len(found) != 2 || len(bad) != 1 || !strings.HasSuffix(bad[0], " requestSeq") {
		t.Fatalf("audit found %v, flagged %v; want only requestSeq flagged", found, bad)
	}
}
