package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRoot lays out a minimal checkout: one command defining -alpha
// and -beta, and a README with the given text.
func writeRoot(t *testing.T, readme string) string {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "cmd", "tool")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package main

import "flag"

func main() {
	_ = flag.Bool("alpha", false, "")
	var n int
	flag.IntVar(&n, "beta", 0, "")
	flag.Parse()
}
`
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "README.md"), []byte(readme), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func TestLintBothDirections(t *testing.T) {
	for _, c := range []struct {
		name, readme string
		want         []string // substrings, one per expected problem
	}{
		{"clean", "tool\n| `-alpha` | off | a |\n| `-beta N` | 0 | b |\n", nil},
		{"undocumented flag", "tool\n| `-alpha` | off | a |\n",
			[]string{"flag -beta is not documented"}},
		{"stale row", "tool\n| `-alpha` / `-beta` | off | a |\n| `-gamma` | on | gone |\n",
			[]string{"documents flag -gamma"}},
		{"missing command", "| `-alpha` | off | a |\n",
			[]string{`command "tool" is not mentioned`}},
	} {
		problems, n, err := lint(writeRoot(t, c.readme))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n != 1 {
			t.Fatalf("%s: %d commands, want 1", c.name, n)
		}
		if len(problems) != len(c.want) {
			t.Fatalf("%s: problems %q, want %d", c.name, problems, len(c.want))
		}
		for i, w := range c.want {
			if !strings.Contains(problems[i], w) {
				t.Errorf("%s: problem %q does not mention %q", c.name, problems[i], w)
			}
		}
	}
}
