// Command docslint keeps README.md honest about the CLI surface: it
// parses every cmd/*/main.go for flag definitions and fails when a
// flag (or a whole command) is missing from README.md, or when a README
// flag-table row (a line starting "| `-name`") names a flag that no
// command defines.
//
//	docslint            # lint README.md against cmd/*/main.go
//	docslint -root dir  # lint another checkout
//
// It is wired into CI's lint job, so adding a flag without documenting
// it breaks the build. The check is textual on purpose — a flag named
// "journal" is satisfied by any occurrence of "-journal" in the README
// — because the README documents flags in prose tables, not in
// machine-readable form.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root (containing README.md and cmd/)")
	flag.Parse()

	problems, ncmd, err := lint(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docslint:", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		for _, m := range problems {
			fmt.Println("FAIL ", m)
		}
		fmt.Printf("docslint: %d undocumented or stale flag(s)/command(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docslint: %d command(s) documented\n", ncmd)
}

// lint checks README.md under root against cmd/*/main.go in both
// directions and returns one line per problem plus the command count.
func lint(root string) (problems []string, ncmd int, err error) {
	data, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return nil, 0, err
	}
	readme := string(data)
	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		return nil, 0, fmt.Errorf("no cmd/*/main.go found")
	}
	sort.Strings(mains)

	defined := map[string]bool{}
	for _, path := range mains {
		cmd := filepath.Base(filepath.Dir(path))
		flags, err := flagNames(path)
		if err != nil {
			return nil, 0, err
		}
		for _, name := range flags {
			defined[name] = true
		}
		if !strings.Contains(readme, cmd) {
			problems = append(problems, fmt.Sprintf("command %q is not mentioned in README.md", cmd))
			continue
		}
		for _, name := range flags {
			if !strings.Contains(readme, "-"+name) {
				problems = append(problems, fmt.Sprintf("%s: flag -%s is not documented in README.md", cmd, name))
			}
		}
	}
	for _, name := range readmeFlags(readme) {
		if !defined[name] {
			problems = append(problems, fmt.Sprintf("README.md documents flag -%s, which no cmd/*/main.go defines", name))
		}
	}
	return problems, len(mains), nil
}

// flagCell matches one `-name` (optionally followed by an argument
// placeholder, as in `-all N`) inside a README table cell.
var flagCell = regexp.MustCompile("`-([A-Za-z0-9][A-Za-z0-9-]*)[^`]*`")

// readmeFlags returns the flag names in the first cell of every README
// flag-table row, in order of appearance.
func readmeFlags(readme string) []string {
	var names []string
	for _, line := range strings.Split(readme, "\n") {
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		cell := strings.SplitN(line, "|", 3)[1]
		for _, m := range flagCell.FindAllStringSubmatch(cell, -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// flagNames extracts the names passed to flag.String/Bool/Int/... calls
// in one file.
func flagNames(path string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "flag" {
			return true
		}
		switch sel.Sel.Name {
		case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration",
			"StringVar", "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "Float64Var", "DurationVar":
		default:
			return true
		}
		arg := call.Args[0]
		if sel.Sel.Name[len(sel.Sel.Name)-3:] == "Var" && len(call.Args) > 1 {
			arg = call.Args[1]
		}
		if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names = append(names, name)
			}
		}
		return true
	})
	return names, nil
}
