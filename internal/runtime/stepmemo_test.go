package runtime

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestStatsStepMemo: the service folds each instance's step-memo counts
// into Stats, and ResetStats zeroes the counts but not the bytes the
// tables hold.
func TestStatsStepMemo(t *testing.T) {
	svc := New(Config{Backend: Instant{}, Workers: 1})
	defer svc.Close()
	s, sources := quickstart(t)
	st := engine.MustParseStrategy("PSE100")
	for range 20 {
		if _, err := svc.Do(s, sources, st); err != nil {
			t.Fatal(err)
		}
	}
	got := svc.Stats()
	if got.StepMemoHits == 0 || got.StepMemoMisses == 0 || got.StepMemoBytes == 0 {
		t.Fatalf("memo hits/misses/bytes = %d/%d/%d, want all > 0", got.StepMemoHits, got.StepMemoMisses, got.StepMemoBytes)
	}
	if got.StepMemoHits != 9*got.StepMemoMisses {
		t.Fatalf("memo hits/misses = %d/%d: of 20 identical instances the first runs plain, the second records, the other 18 replay", got.StepMemoHits, got.StepMemoMisses)
	}
	if !strings.Contains(got.String(), fmt.Sprintf(" memo=%d/%d\n", got.StepMemoHits, got.StepMemoMisses)) {
		t.Fatalf("String() lacks the memo counts:\n%s", got)
	}
	svc.ResetStats()
	if after := svc.Stats(); after.StepMemoHits != 0 || after.StepMemoMisses != 0 || after.StepMemoBytes != got.StepMemoBytes {
		t.Fatalf("after ResetStats memo = %d/%d, %d bytes; want 0/0, %d bytes", after.StepMemoHits, after.StepMemoMisses, after.StepMemoBytes, got.StepMemoBytes)
	}
}
