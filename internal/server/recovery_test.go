package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// durableDaemon builds a daemon over a fresh store on dir. Abandoning
// the returned daemon without shutdown or snapshot is the in-process
// equivalent of SIGKILL: the WAL holds whatever was acknowledged, and
// nothing else.
func durableDaemon(t *testing.T, dir string, mutate func(*Config)) *Daemon {
	t.Helper()
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	cfg := Config{
		Catalog: cat,
		Engine:  engine.New(cat, engine.SystemA()),
		Advisor: cophy.Options{GapTol: 0.02, RootIters: 160, MaxNodes: 16},
		Store:   store,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestKillRestartWarmRecovery is the acceptance pin for the durability
// layer: ingest a workload, recommend (warming the session), die hard
// (no shutdown, no snapshot — WAL only), restart from the data
// directory, and require (a) the stream recovered exactly — statement
// counts, IDs and weights — and (b) the first post-restart /recommend
// solves warm, in fewer solver iterations than the pre-kill cold
// control.
func TestKillRestartWarmRecovery(t *testing.T) {
	dir := t.TempDir()

	// Generation 1: ingest, cold recommend, one delta, warm recommend.
	d1 := durableDaemon(t, dir, nil)
	srv1 := httptest.NewServer(d1.Handler())
	gen := workload.Hom(workload.HomConfig{Queries: 30, Seed: 11})
	post(t, srv1, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)

	var cold RecommendResult
	if resp := post(t, srv1, "/recommend", RecommendOptions{BudgetFraction: 0.5}, &cold); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold recommend: status %d", resp.StatusCode)
	}
	if cold.Warm || cold.Iters < 2 {
		t.Fatalf("cold control unusable: %+v", cold)
	}
	delta := workload.Hom(workload.HomConfig{Queries: 3, Seed: 99})
	post(t, srv1, "/ingest", ingestRequest{SQL: renderSQL(delta)}, nil)

	preKill := d1.stream.Export()
	preStats := d1.Snapshot()
	srv1.Close() // SIGKILL: no shutdown snapshot, no store.Close

	// Generation 2: recover from the same directory.
	d2 := durableDaemon(t, dir, nil)
	srv2 := httptest.NewServer(d2.Handler())
	defer srv2.Close()

	st := d2.Snapshot()
	if st.Live != preStats.Live || st.Observed != preStats.Observed || st.Ticks != preStats.Ticks {
		t.Fatalf("stream counts diverged: live %d/%d observed %d/%d ticks %d/%d",
			st.Live, preStats.Live, st.Observed, preStats.Observed, st.Ticks, preStats.Ticks)
	}
	if st.LiveWeight != preStats.LiveWeight {
		t.Fatalf("live weight diverged: %v vs %v", st.LiveWeight, preStats.LiveWeight)
	}
	if st.Ingested != preStats.Ingested {
		t.Fatalf("ingested counter diverged: %d vs %d", st.Ingested, preStats.Ingested)
	}
	recovered := d2.stream.Export()
	if len(recovered.Entries) != len(preKill.Entries) {
		t.Fatalf("recovered %d entries, want %d", len(recovered.Entries), len(preKill.Entries))
	}
	for i := range preKill.Entries {
		if recovered.Entries[i] != preKill.Entries[i] {
			t.Fatalf("entry %d diverged:\n  got  %+v\n  want %+v", i, recovered.Entries[i], preKill.Entries[i])
		}
	}
	if st.Recovery == nil || !st.Recovery.WarmSession || st.Recovery.ReplayedRecords == 0 {
		t.Fatalf("recovery stats: %+v", st.Recovery)
	}
	if st.Recovery.HadSnapshot {
		t.Fatal("no snapshot was ever written; recovery must be WAL-only")
	}

	// The cold-start control: the same recovered workload solved with
	// no warm state, on its own advisor so the daemon's session is
	// untouched. This is what every restart paid before the durability
	// layer existed.
	ctlAd := cophy.NewAdvisor(d2.cat, engine.New(d2.cat, engine.SystemA()), cophy.Options{GapTol: 0.02, RootIters: 160, MaxNodes: 16})
	ctlW := d2.stream.Snapshot()
	ctlCands := cophy.Candidates(d2.cat, ctlW, cophy.CGenOptions{Covering: true})
	ctl, err := ctlAd.NewSession(ctlW, ctlCands, cophy.FractionOfData(d2.cat, 0.5)).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Iters < 2 {
		t.Fatalf("cold control trivial (%d iters)", ctl.Iters)
	}

	// The warm-recovery payoff: the first post-restart recommendation
	// adopts the recovered multipliers and incumbent.
	var warm RecommendResult
	if resp := post(t, srv2, "/recommend", RecommendOptions{BudgetFraction: 0.5}, &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart recommend: status %d", resp.StatusCode)
	}
	if !warm.Warm {
		t.Fatal("first post-restart recommend reports cold")
	}
	if warm.Iters >= ctl.Iters {
		t.Fatalf("warm recovery did not work: %d iters post-restart vs %d cold control", warm.Iters, ctl.Iters)
	}
	if warm.Infeasible || len(warm.Indexes) == 0 {
		t.Fatalf("post-restart recommendation degenerate: %+v", warm)
	}
	_ = cold // the pre-kill cold solve seeded the session the WAL preserved
}

// TestRecoverLegacyDualSites pins warm-state wire compatibility: a data
// directory whose last session record writes every dual site in the
// older (choice, slot, index) form — "choice":-1,"slot":-1 on each,
// the keys per-index multipliers always carried — recovers warm, and
// the first /recommend equals the in-process warm re-solve of the same
// state.
func TestRecoverLegacyDualSites(t *testing.T) {
	dir := t.TempDir()
	d1 := durableDaemon(t, dir, nil)
	srv1 := httptest.NewServer(d1.Handler())
	gen := workload.Hom(workload.HomConfig{Queries: 30, Seed: 11})
	post(t, srv1, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)
	if resp := post(t, srv1, "/recommend", RecommendOptions{BudgetFraction: 0.5}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold recommend: status %d", resp.StatusCode)
	}
	srv1.Close() // SIGKILL: the WAL holds the ingest and the session record

	// Append the same session state once more, re-encoded in the older
	// site form; session records are absolute, so this one wins.
	st := d1.sessionStateLocked(0.5)
	raw, err := json.Marshal(walRecord{Type: "session", Session: st})
	if err != nil {
		t.Fatal(err)
	}
	sites := 0
	for _, b := range st.Duals {
		sites += len(b.Sites)
	}
	if sites == 0 {
		t.Fatal("session state carries no dual sites")
	}
	const site = `{"index":`
	if got := strings.Count(string(raw), site); got != sites {
		t.Fatalf("record has %d site objects, state has %d sites", got, sites)
	}
	legacy := strings.ReplaceAll(string(raw), site, `{"choice":-1,"slot":-1,"index":`)
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nop := func([]byte) error { return nil }
	if _, err := store.Recover(nop, nop); err != nil {
		t.Fatal(err)
	}
	if err := store.Append([]byte(legacy)); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Control: the pre-kill session re-solves warm over the same state.
	inProc, err := d1.session.Solve()
	if err != nil {
		t.Fatal(err)
	}

	d2 := durableDaemon(t, dir, nil)
	srv2 := httptest.NewServer(d2.Handler())
	defer srv2.Close()
	if rec := d2.Snapshot().Recovery; rec == nil || !rec.WarmSession {
		t.Fatalf("legacy session record did not recover warm: %+v", rec)
	}
	var warm RecommendResult
	if resp := post(t, srv2, "/recommend", RecommendOptions{BudgetFraction: 0.5}, &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart recommend: status %d", resp.StatusCode)
	}
	if !warm.Warm {
		t.Fatal("first post-restart recommend reports cold")
	}
	if warm.Iters != inProc.Iters || warm.EstCost != inProc.EstCost || warm.Lower != inProc.Lower || warm.Gap != inProc.Gap {
		t.Fatalf("recovered solve differs from in-process warm re-solve: iters %d/%d cost %v/%v lower %v/%v gap %v/%v",
			warm.Iters, inProc.Iters, warm.EstCost, inProc.EstCost, warm.Lower, inProc.Lower, warm.Gap, inProc.Gap)
	}
	if len(warm.Indexes) != len(inProc.Indexes) {
		t.Fatalf("recovered solve picked %d indexes, in-process %d", len(warm.Indexes), len(inProc.Indexes))
	}
	for i, sp := range warm.Indexes {
		if got, want := sp.Index().ID(), inProc.Indexes[i].ID(); got != want {
			t.Fatalf("index %d: recovered %s, in-process %s", i, got, want)
		}
	}
}

// TestSnapshotBoundsReplay: after a snapshot, the WAL before it is
// gone, recovery loads the snapshot and replays only the tail, and the
// result is the same state.
func TestSnapshotBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	d1 := durableDaemon(t, dir, nil)
	srv1 := httptest.NewServer(d1.Handler())

	gen := workload.Hom(workload.HomConfig{Queries: 12, Seed: 7})
	post(t, srv1, "/ingest", ingestRequest{SQL: renderSQL(gen)}, nil)

	// Snapshot through the admin endpoint, then a post-snapshot tail.
	var snap SnapshotResult
	if resp := post(t, srv1, "/snapshot", struct{}{}, &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("/snapshot status %d", resp.StatusCode)
	}
	if snap.Bytes == 0 || snap.Statements == 0 {
		t.Fatalf("snapshot result %+v", snap)
	}
	tail := workload.Hom(workload.HomConfig{Queries: 4, Seed: 21})
	post(t, srv1, "/ingest", ingestRequest{SQL: renderSQL(tail)}, nil)

	preKill := d1.stream.Export()
	srv1.Close()

	d2 := durableDaemon(t, dir, nil)
	st := d2.Snapshot()
	if !st.Recovery.HadSnapshot {
		t.Fatal("recovery ignored the snapshot")
	}
	if st.Recovery.ReplayedRecords != 1 {
		t.Fatalf("replayed %d records, want 1 (the post-snapshot tail)", st.Recovery.ReplayedRecords)
	}
	recovered := d2.stream.Export()
	if len(recovered.Entries) != len(preKill.Entries) {
		t.Fatalf("recovered %d entries, want %d", len(recovered.Entries), len(preKill.Entries))
	}
	for i := range preKill.Entries {
		if recovered.Entries[i] != preKill.Entries[i] {
			t.Fatalf("entry %d diverged after snapshot+tail recovery", i)
		}
	}
}

// TestReplayOverEviction: a statement ingested and then decay-evicted
// before the crash must not resurrect on replay — the WAL replays the
// ticks exactly, so the eviction happens again.
func TestReplayOverEviction(t *testing.T) {
	dir := t.TempDir()
	d1 := durableDaemon(t, dir, func(c *Config) {
		c.HalfLife = 1 // one tick halves every weight
		c.MinWeight = 0.4
	})
	srv1 := httptest.NewServer(d1.Handler())

	doomed := workload.Hom(workload.HomConfig{Queries: 5, Seed: 31})
	post(t, srv1, "/ingest", ingestRequest{SQL: renderSQL(doomed)}, nil)
	var doomedIDs []string
	for _, e := range d1.stream.Export().Entries {
		doomedIDs = append(doomedIDs, e.ID)
	}

	// Keep one statement alive while the first batch decays out.
	keep := workload.Hom(workload.HomConfig{Queries: 1, Seed: 99})
	for i := 0; i < 6; i++ {
		post(t, srv1, "/ingest", ingestRequest{SQL: renderSQL(keep), WeightScale: 100}, nil)
	}
	preKill := d1.stream.Export()
	for _, e := range preKill.Entries {
		for _, id := range doomedIDs {
			if e.ID == id {
				t.Fatalf("fixture broken: %s still live before the kill", id)
			}
		}
	}
	srv1.Close()

	d2 := durableDaemon(t, dir, func(c *Config) {
		c.HalfLife = 1
		c.MinWeight = 0.4
	})
	recovered := d2.stream.Export()
	if len(recovered.Entries) != len(preKill.Entries) {
		t.Fatalf("recovered %d entries, want %d", len(recovered.Entries), len(preKill.Entries))
	}
	for i := range preKill.Entries {
		if recovered.Entries[i] != preKill.Entries[i] {
			t.Fatalf("entry %d diverged", i)
		}
	}
	for _, e := range recovered.Entries {
		for _, id := range doomedIDs {
			if e.ID == id {
				t.Fatalf("evicted statement %s resurrected by replay", id)
			}
		}
	}
	// The ID allocator must not reuse the dead IDs either.
	fresh := workload.Hom(workload.HomConfig{Queries: 1, Seed: 55})
	res, err := d2.Ingest(context.Background(), renderSQL(fresh), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 {
		t.Fatalf("fresh ingest after recovery: %+v", res)
	}
	for _, e := range d2.stream.Export().Entries {
		if e.ID == "" {
			t.Fatal("restored entry without an ID")
		}
	}
}

// TestRecoverStateSchemaSkew: a snapshot whose daemon-level state
// schema differs from the binary's is rejected with an error naming
// both numbers — never silently reinterpreted.
func TestRecoverStateSchemaSkew(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Recover(nil, nil); err != nil {
		t.Fatal(err)
	}
	seq, err := store.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(persistedState{Schema: stateSchema + 7})
	if _, err := store.WriteSnapshot(seq, payload); err != nil {
		t.Fatal(err)
	}
	store.Close()

	store2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	_, err = New(Config{
		Catalog: cat,
		Engine:  engine.New(cat, engine.SystemA()),
		Store:   store2,
	})
	if err == nil {
		t.Fatal("schema skew accepted")
	}
	if !strings.Contains(err.Error(), "schema") {
		t.Fatalf("skew error does not name the schema: %v", err)
	}
}

// TestSnapshotWhileIngesting: concurrent ingests racing WriteSnapshot
// must neither deadlock nor lose batches — every acknowledged batch is
// either inside the snapshot or in the surviving WAL tail, never both,
// so the recovered observation count matches the acknowledged one.
func TestSnapshotWhileIngesting(t *testing.T) {
	dir := t.TempDir()
	d1 := durableDaemon(t, dir, nil)

	const loops = 8
	done := make(chan int64, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			var accepted int64
			for i := 0; i < loops; i++ {
				w := workload.Hom(workload.HomConfig{Queries: 2, Seed: int64(g*1000 + i)})
				res, err := d1.Ingest(context.Background(), renderSQL(w), 0)
				if err != nil {
					t.Error(err)
					break
				}
				accepted += int64(res.Accepted)
			}
			done <- accepted
		}(g)
	}
	var snapErrs int
	for i := 0; i < 4; i++ {
		if _, err := d1.WriteSnapshot(context.Background()); err != nil {
			snapErrs++
		}
	}
	total := <-done + <-done
	if snapErrs > 0 {
		t.Fatalf("%d snapshots failed under concurrent ingestion", snapErrs)
	}
	preKill := d1.stream.Export()

	d2 := durableDaemon(t, dir, nil)
	recovered := d2.stream.Export()
	if recovered.Observed != total {
		t.Fatalf("recovered observation count %d, acknowledged %d", recovered.Observed, total)
	}
	if len(recovered.Entries) != len(preKill.Entries) {
		t.Fatalf("recovered %d entries, want %d", len(recovered.Entries), len(preKill.Entries))
	}
	for i := range preKill.Entries {
		if recovered.Entries[i] != preKill.Entries[i] {
			t.Fatalf("entry %d diverged under snapshot/ingest race", i)
		}
	}
}
