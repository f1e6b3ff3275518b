package core

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// The golden fixtures in testdata pin the experiment tables
// byte-for-byte, at Jobs=1 and Jobs=GOMAXPROCS, so neither the
// simulation core nor the parallel engine can silently change a single
// cell. Run under -race in CI. A deliberate simulation-order change
// (e.g. a different RNG or event scheduling) regenerates them with
// `go test -run Golden -update ./internal/core/`; review the diff
// before committing.

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures from current output")

func readGolden(t *testing.T, name, got string) string {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile("testdata/"+name, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return string(b)
}

func diffLine(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return "line " + gl[i] + " != " + wl[i]
		}
	}
	return "length mismatch"
}

func TestFig2bGoldenByteIdentical(t *testing.T) {
	var want string
	// Forking on and off must both match the golden: the checkpoint
	// fast path may not change a single cell.
	for _, noFork := range []bool{false, true} {
		for _, jobs := range []int{1, 0} {
			sc := ExperimentScale{Sites: 4, Runs: 3, Seed: 1, Jobs: jobs, NoFork: noFork}
			tab, err := Fig2bPushVsNoPush(sc)
			if err != nil {
				t.Fatal(err)
			}
			got := tab.String()
			if want == "" {
				want = readGolden(t, "fig2b_golden.txt", got)
			}
			if got != want {
				t.Errorf("Fig2b table diverged from golden at Jobs=%d noFork=%v: %s",
					jobs, noFork, diffLine(got, want))
			}
		}
	}
}

func TestScenarioSweepGoldenByteIdentical(t *testing.T) {
	var want string
	for _, noFork := range []bool{false, true} {
		for _, jobs := range []int{1, 0} {
			sc := ExperimentScale{Sites: 2, Runs: 2, Seed: 1, Jobs: jobs, NoFork: noFork}
			tabs, err := ScenarioSweepNames([]string{"dsl", "satellite"}, sc)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, tab := range tabs {
				sb.WriteString(tab.String())
			}
			got := sb.String()
			if want == "" {
				want = readGolden(t, "scenariosweep_golden.txt", got)
			}
			if got != want {
				t.Errorf("scenario sweep tables diverged from golden at Jobs=%d noFork=%v: %s", jobs, noFork, diffLine(got, want))
			}
		}
	}
}
