package experiment

import (
	"bytes"
	"testing"
)

// TestEveryExperimentRunsAtMicroScale executes every registered runner at
// a minimal configuration and validates the produced tables, guarding
// `nvbench -exp all` end to end. The crashmc experiment's tables are the
// package's one micro-scale run of it (crashMCMicro).
func TestEveryExperimentRunsAtMicroScale(t *testing.T) {
	micro := Config{Threads: []int{1}, Scale: 0.02, DeviceBytes: 256 << 20}
	for _, id := range Names() {
		t.Run(id, func(t *testing.T) {
			var tables []*Table
			if id == "crashmc" {
				tables = crashMCMicro()
			} else {
				tables = Experiments[id](micro)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				if tab.ID == "" || tab.Title == "" {
					t.Fatalf("table missing metadata: %+v", tab)
				}
				if len(tab.Columns) == 0 || len(tab.Rows) == 0 {
					t.Fatalf("table %s has no data", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Fatalf("table %s: row width %d != %d columns", tab.Title, len(row), len(tab.Columns))
					}
					for _, cell := range row {
						if cell == "" {
							t.Fatalf("table %s has an empty cell", tab.Title)
						}
					}
				}
				var buf bytes.Buffer
				tab.Print(&buf)
				if buf.Len() == 0 {
					t.Fatal("print produced nothing")
				}
			}
		})
	}
}
