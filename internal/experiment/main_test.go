package experiment

import (
	"fmt"
	"os"
	"testing"
)

// TestMain runs the package's tests and, under -v, prints the shared
// profile store's counters. Run alone (-run '^TestX$'), a test's store
// misses are the cold collections it simulated; `make race-test-costs`
// tabulates them per test.
func TestMain(m *testing.M) {
	code := m.Run()
	if testing.Verbose() {
		st := ProfileStoreStats()
		fmt.Printf("profstore: misses=%d mem_hits=%d disk_hits=%d shared=%d\n", st.Misses, st.MemHits, st.DiskHits, st.Shared)
	}
	os.Exit(code)
}
