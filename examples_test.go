package declnet_test

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the example goldens under testdata/examples")

// TestExamplesGolden builds every program under examples/ and pins its
// stdout byte for byte: the examples drive the public facade end to end,
// and each is a pure function of its fixed seed. Re-bless a deliberate
// change with `go test -run TestExamplesGolden -update .`.
func TestExamplesGolden(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("examples", "*"))
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, dir := range dirs {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			exe := filepath.Join(bin, name)
			if out, err := exec.Command("go", "build", "-o", exe, "./"+dir).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			got, err := exec.Command(exe).Output()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			path := filepath.Join("testdata", "examples", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s stdout drifted from %s:\n--- want\n%s\n--- got\n%s", name, path, want, got)
			}
		})
	}
}
