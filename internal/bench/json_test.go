package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The report header records the configuration the engine actually ran:
// clause sharing needs a SAT portfolio, which exists only at
// parallelism > 1, so a -j 1 report must say share_clauses: false even
// though sharing was not disabled.
func TestWriteJSONRecordsEffectiveConfig(t *testing.T) {
	for _, c := range []struct {
		opts  Options
		share bool
	}{
		{Options{Parallelism: 1}, false},
		{Options{Parallelism: 4}, true},
		{Options{Parallelism: 4, NoShareClauses: true}, false},
	} {
		path := filepath.Join(t.TempDir(), "bench.json")
		if err := WriteJSON(path, nil, c.opts); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep jsonReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		par, noShare := c.opts.Parallelism, c.opts.NoShareClauses
		if rep.Options.Parallelism != par {
			t.Errorf("-j %d: parallelism %d", par, rep.Options.Parallelism)
		}
		if rep.Options.ShareClauses != c.share {
			t.Errorf("-j %d NoShareClauses=%v: share_clauses %v, want %v",
				par, noShare, rep.Options.ShareClauses, c.share)
		}
	}
}
