package workload

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/tpch"
)

func streamStatements(t *testing.T, sql string) []*Statement {
	t.Helper()
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.01})
	w, err := Parse(cat, sql)
	if err != nil {
		t.Fatal(err)
	}
	return w.Statements
}

func TestStreamDeduplicatesAndAccumulates(t *testing.T) {
	st := NewStream(StreamConfig{})
	a := streamStatements(t, "SELECT l_quantity FROM lineitem WHERE l_shipdate < :0.3;")[0]
	b := streamStatements(t, "SELECT l_quantity FROM lineitem WHERE l_shipdate < :0.3 WEIGHT 2;")[0]
	c := streamStatements(t, "SELECT o_totalprice FROM orders WHERE o_orderdate < :0.4;")[0]

	id1 := st.Observe(a)
	id2 := st.Observe(b) // structurally identical (weight differs, form identical)
	id3 := st.Observe(c)
	if id1 != id2 {
		t.Fatalf("identical statements got distinct IDs: %s vs %s", id1, id2)
	}
	if id1 == id3 {
		t.Fatalf("distinct statements share an ID: %s", id1)
	}
	if st.Len() != 2 {
		t.Fatalf("live statements = %d, want 2", st.Len())
	}
	w := st.Snapshot()
	if w.Size() != 2 {
		t.Fatalf("snapshot size = %d", w.Size())
	}
	if w.Statements[0].Weight != 3 { // 1 + 2 accumulated
		t.Fatalf("accumulated weight = %v, want 3", w.Statements[0].Weight)
	}
	if w.Statements[0].ID() != id1 || w.Statements[1].ID() != id3 {
		t.Fatalf("snapshot IDs %s/%s, want %s/%s", w.Statements[0].ID(), w.Statements[1].ID(), id1, id3)
	}
}

func TestStreamDecayAndEviction(t *testing.T) {
	st := NewStream(StreamConfig{HalfLife: 2, MinWeight: 0.3})
	s := streamStatements(t, "SELECT l_quantity FROM lineitem WHERE l_shipdate < :0.3;")[0]
	id := st.Observe(s)

	st.Tick()
	st.Tick() // one half-life
	w := st.Snapshot()
	if len(w.Statements) != 1 {
		t.Fatalf("statement evicted too early")
	}
	if got := w.Statements[0].Weight; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("weight after one half-life = %v, want 0.5", got)
	}

	// Re-observing refreshes the weight and keeps the stable ID.
	s2 := streamStatements(t, "SELECT l_quantity FROM lineitem WHERE l_shipdate < :0.3;")[0]
	if id2 := st.Observe(s2); id2 != id {
		t.Fatalf("refresh changed ID: %s vs %s", id2, id)
	}
	if got := st.Snapshot().Statements[0].Weight; math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("refreshed weight = %v, want 1.5", got)
	}

	// Decay to below MinWeight: 1.5 · 2^(-k/2) < 0.3 at k = 5.
	for i := 0; i < 5; i++ {
		st.Tick()
	}
	if st.Len() != 0 {
		t.Fatalf("statement survived below the eviction threshold (len=%d)", st.Len())
	}
	// After eviction, the statement re-enters under a fresh ID.
	s3 := streamStatements(t, "SELECT l_quantity FROM lineitem WHERE l_shipdate < :0.3;")[0]
	if id3 := st.Observe(s3); id3 == id {
		t.Fatalf("evicted statement resurrected its old ID %s", id)
	}
}

func TestStreamSnapshotIsolation(t *testing.T) {
	st := NewStream(StreamConfig{HalfLife: 1})
	st.Observe(streamStatements(t, "SELECT l_quantity FROM lineitem WHERE l_shipdate < :0.3;")[0])
	w := st.Snapshot()
	before := w.Statements[0].Weight
	st.Tick()
	st.Observe(streamStatements(t, "SELECT o_totalprice FROM orders WHERE o_orderdate < :0.4;")[0])
	if w.Statements[0].Weight != before || w.Size() != 1 {
		t.Fatal("snapshot mutated by later stream activity")
	}
}

func TestStreamUpdateStatements(t *testing.T) {
	st := NewStream(StreamConfig{})
	u := streamStatements(t, "UPDATE lineitem SET l_quantity = :0.5 WHERE l_orderkey < :0.2 WEIGHT 4;")[0]
	id := st.Observe(u)
	w := st.Snapshot()
	if !w.Statements[0].IsUpdate() || w.Statements[0].Weight != 4 {
		t.Fatalf("update statement mishandled: %+v", w.Statements[0])
	}
	if w.Statements[0].ID() != id {
		t.Fatalf("update ID %s, want %s", w.Statements[0].ID(), id)
	}
	// The update's query shell inherits the stable ID.
	shell := w.Queries()[0].Query
	if shell.ID != id+"#shell" {
		t.Fatalf("shell ID = %s", shell.ID)
	}
}

func TestStreamConcurrentObserve(t *testing.T) {
	st := NewStream(StreamConfig{HalfLife: 50})
	texts := []string{
		"SELECT l_quantity FROM lineitem WHERE l_shipdate < :0.3;",
		"SELECT o_totalprice FROM orders WHERE o_orderdate < :0.4;",
		"SELECT c_name FROM customer WHERE c_mktsegment = :0.3;",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s := streamStatements(t, texts[(g+i)%len(texts)])[0]
				st.Observe(s)
				if i%5 == 0 {
					st.Tick()
					st.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if st.Len() != len(texts) {
		t.Fatalf("live = %d, want %d", st.Len(), len(texts))
	}
	if st.Observed() != 160 {
		t.Fatalf("observed = %d, want 160", st.Observed())
	}
}

// TestStreamObserveBatchAtomic: an ingest batch applied through
// ObserveBatch is atomic to readers. With decay off and statements that
// never repeat, every snapshot must hold exactly k statements per tick;
// a snapshot taken between two Observes of one batch would hold a
// remainder. Run under -race it also checks the lock discipline.
func TestStreamObserveBatchAtomic(t *testing.T) {
	const k, ticks = 5, 60
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.01})
	batches := make([][]*Statement, ticks)
	for b := range batches {
		var sql strings.Builder
		for i := 0; i < k; i++ {
			n := 1 + b*k + i // distinct 3-decimal positions: never repeats
			fmt.Fprintf(&sql, "SELECT l_quantity FROM lineitem WHERE l_shipdate < :%0.3f;\n", float64(n)/1000)
		}
		w, err := Parse(cat, sql.String())
		if err != nil {
			t.Fatal(err)
		}
		batches[b] = w.Statements
	}

	st := NewStream(StreamConfig{})
	// ready closes after the reader's first snapshot, so the writer
	// cannot apply every batch before the reader is scheduled.
	ready, done := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	var bad []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		for snaps := 0; ; snaps++ {
			select {
			case <-done:
				if snaps == 0 {
					bad = append(bad, "reader took no snapshot")
				}
				return
			default:
			}
			w := st.Snapshot()
			if snaps == 0 {
				close(ready)
			}
			var tick int
			if _, err := fmt.Sscanf(w.Name, "stream@%d", &tick); err != nil {
				bad = append(bad, err.Error())
				return
			}
			if w.Size() != k*tick {
				bad = append(bad, fmt.Sprintf("snapshot at tick %d holds %d statements, want %d", tick, w.Size(), k*tick))
				return
			}
		}
	}()
	<-ready
	for _, b := range batches {
		st.ObserveBatch(b)
	}
	close(done)
	wg.Wait()
	for _, msg := range bad {
		t.Error(msg)
	}
	if st.Len() != k*ticks || st.Ticks() != ticks {
		t.Fatalf("live = %d, ticks = %d; want %d, %d", st.Len(), st.Ticks(), k*ticks, ticks)
	}
}

// TestStreamExportRestoreRoundTrip: a restored stream is
// indistinguishable from the original — same entries in the same order
// with the same IDs and exact weights, the same clocks, and the same
// future behavior (merging, ID allocation, decay eviction).
func TestStreamExportRestoreRoundTrip(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.01})
	st := NewStream(StreamConfig{HalfLife: 2, MinWeight: 0.3})
	sql := "SELECT l_quantity FROM lineitem WHERE l_shipdate < :0.3 WEIGHT 3;" +
		"SELECT o_totalprice FROM orders WHERE o_orderdate < :0.4;" +
		"UPDATE lineitem SET l_quantity = :v WHERE l_orderkey < :0.1 WEIGHT 2;"
	for _, s := range streamStatements(t, sql) {
		st.Observe(s)
	}
	st.Tick()

	state := st.Export()
	if len(state.Entries) != 3 || state.Ticks != 1 || state.Observed != 3 {
		t.Fatalf("export %+v", state)
	}

	re := NewStream(StreamConfig{HalfLife: 2, MinWeight: 0.3})
	if err := re.Restore(cat, state); err != nil {
		t.Fatal(err)
	}
	if re.Len() != st.Len() || re.Observed() != st.Observed() || re.Ticks() != st.Ticks() {
		t.Fatalf("clocks differ: %d/%d/%d vs %d/%d/%d",
			re.Len(), re.Observed(), re.Ticks(), st.Len(), st.Observed(), st.Ticks())
	}
	a, b := st.Snapshot(), re.Snapshot()
	for i := range a.Statements {
		if a.Statements[i].ID() != b.Statements[i].ID() {
			t.Fatalf("entry %d: ID %s vs %s", i, a.Statements[i].ID(), b.Statements[i].ID())
		}
		if a.Statements[i].Weight != b.Statements[i].Weight {
			t.Fatalf("entry %d: weight %v vs %v", i, a.Statements[i].Weight, b.Statements[i].Weight)
		}
	}

	// A re-observation of a known statement must merge with the
	// restored entry, not mint a new one.
	dup := streamStatements(t, "SELECT o_totalprice FROM orders WHERE o_orderdate < :0.4;")[0]
	if id := re.Observe(dup); id != a.Statements[1].ID() {
		t.Fatalf("re-observation minted %s, want %s", id, a.Statements[1].ID())
	}
	// A new statement resumes the ID allocator, not restarts it.
	fresh := streamStatements(t, "SELECT c_name FROM customer WHERE c_mktsegment = :0.5;")[0]
	freshID := re.Observe(fresh)
	for _, s := range a.Statements {
		if s.ID() == freshID {
			t.Fatalf("restored stream reissued live ID %s", freshID)
		}
	}

	// Decay parity: both streams evict the same statements on the same
	// ticks (the replay-over-eviction invariant).
	st.Observe(streamStatements(t, "SELECT o_totalprice FROM orders WHERE o_orderdate < :0.4;")[0])
	st.Observe(streamStatements(t, "SELECT c_name FROM customer WHERE c_mktsegment = :0.5;")[0])
	for i := 0; i < 4; i++ {
		st.Tick()
		re.Tick()
	}
	if st.Len() != re.Len() {
		t.Fatalf("post-restore decay diverged: %d vs %d live", st.Len(), re.Len())
	}
	sa, sb := st.Snapshot(), re.Snapshot()
	for i := range sa.Statements {
		if sa.Statements[i].ID() != sb.Statements[i].ID() || sa.Statements[i].Weight != sb.Statements[i].Weight {
			t.Fatalf("post-restore entry %d diverged", i)
		}
	}
}

func TestStreamRestoreRefusesNonEmpty(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.01})
	st := NewStream(StreamConfig{})
	st.Observe(streamStatements(t, "SELECT l_quantity FROM lineitem;")[0])
	if err := st.Restore(cat, StreamState{}); err == nil {
		t.Fatal("restore into a live stream accepted")
	}
}
