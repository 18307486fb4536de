package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// layerAcc collects one client's per-layer figures in the traced run.
type layerAcc struct {
	ingestCall, whatifCall, recCall     samples
	walIngest, walRec, queue            samples
	candgen, prepare, build, solve, lpT samples
	parse, cands, iters                 samples
	failed                              []string
}

// daemonConfig is the server.Config cophyd's default flags produce,
// with a durable store.
func daemonConfig(cat *catalog.Catalog, eng *engine.Engine, store *persist.Store) server.Config {
	return server.Config{
		Catalog:        cat,
		Engine:         eng,
		Advisor:        advisorOptions,
		HalfLife:       halfLife,
		MinWeight:      minWeight,
		RequestTimeout: 30 * time.Second,
		MaxCandidates:  4096,
		MaxQueue:       16,
		QueueTimeout:   2 * time.Second,
		Store:          store,
		SLOFastWindow:  5 * time.Minute,
		SLOSlowWindow:  time.Hour,
		FlightKeep:     8,
		FlightEvents:   64,
	}
}

// tracedServe recovers a server.Daemon from a copy of the warm state,
// replays the clients' sequences against it in-process, each call under
// its own obs.Trace, and
// reports the per-layer metrics, together with the client-side figures
// cs of the HTTP run of the same sequences.
func tracedServe(cfg config, warmDir string, seqs [][]op, cs clientSide, rep *report) error {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	dir := filepath.Join(cfg.root, ".bench_build", "tmp", fmt.Sprintf("traced-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	if err := copyFiles(warmDir, dir); err != nil {
		return err
	}
	store, err := persist.Open(dir, persist.Options{Sync: true})
	if err != nil {
		return err
	}
	defer store.Close()
	ctx := context.Background()
	d, err := server.NewCtx(ctx, daemonConfig(cat, eng, store))
	if err != nil {
		return err
	}
	recommend := func(ctx context.Context) (server.RecommendResult, error) {
		ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		return d.Recommend(ctx, server.RecommendOptions{BudgetFraction: budgetFraction})
	}
	if _, err := recommend(ctx); err != nil {
		return fmt.Errorf("first recommend: %w", err)
	}

	before := d.Snapshot()
	calls0 := eng.WhatIfCalls()
	accs := make([]layerAcc, len(seqs))
	var wg sync.WaitGroup
	for ci := range seqs {
		wg.Add(1)
		go func(acc *layerAcc, ops []op) {
			defer wg.Done()
			for i := range ops {
				o := &ops[i]
				tr := obs.NewTrace()
				tctx := obs.WithTrace(ctx, tr)
				if o.kind != "recommend" {
					t0 := time.Now()
					_, err := workload.Parse(cat, o.sql)
					acc.parse.add(time.Since(t0))
					if err != nil {
						acc.failed = append(acc.failed, err.Error())
					}
				}
				t0 := time.Now()
				var err error
				switch o.kind {
				case "ingest":
					_, err = d.Ingest(tctx, o.sql, 0)
					acc.ingestCall.add(time.Since(t0))
					acc.walIngest.add(tr.Dur("wal.append"))
				case "whatif":
					ixs := make([]*catalog.Index, len(o.indexes))
					for j, sp := range o.indexes {
						ixs[j] = &catalog.Index{Table: sp.Table, Key: sp.Key, Include: sp.Include}
					}
					_, err = d.WhatIf(o.sql, ixs)
					acc.whatifCall.add(time.Since(t0))
				default:
					var res server.RecommendResult
					res, err = recommend(tctx)
					acc.recCall.add(time.Since(t0))
					acc.walRec.add(tr.Dur("wal.append"))
					acc.queue.add(tr.Dur("queue.wait"))
					acc.candgen.add(tr.Dur("candgen"))
					acc.prepare.add(tr.Dur("inum.prepare"))
					acc.build.add(tr.Dur("build"))
					acc.solve.add(tr.Dur("solve"))
					acc.lpT.add(tr.Dur("lp.phase1") + tr.Dur("lp.phase2"))
					acc.cands = append(acc.cands, float64(res.Candidates))
					acc.iters = append(acc.iters, float64(res.Iters))
				}
				if err != nil {
					acc.failed = append(acc.failed, o.kind+": "+err.Error())
				}
			}
		}(&accs[ci], seqs[ci])
	}
	wg.Wait()
	after := d.Snapshot()
	calls := eng.WhatIfCalls() - calls0

	var all layerAcc
	for _, a := range accs {
		for _, f := range a.failed {
			rep.fail("traced replay: %s", f)
		}
		all.ingestCall = append(all.ingestCall, a.ingestCall...)
		all.whatifCall = append(all.whatifCall, a.whatifCall...)
		all.recCall = append(all.recCall, a.recCall...)
		all.walIngest = append(all.walIngest, a.walIngest...)
		all.walRec = append(all.walRec, a.walRec...)
		all.queue = append(all.queue, a.queue...)
		all.candgen = append(all.candgen, a.candgen...)
		all.prepare = append(all.prepare, a.prepare...)
		all.build = append(all.build, a.build...)
		all.solve = append(all.solve, a.solve...)
		all.lpT = append(all.lpT, a.lpT...)
		all.parse = append(all.parse, a.parse...)
		all.cands = append(all.cands, a.cands...)
		all.iters = append(all.iters, a.iters...)
	}
	for _, s := range seqs {
		rep.attempted += int64(len(s))
	}

	// Tracing overhead: alternate untraced and traced recommendations
	// over the now unchanging live workload.
	var plain, traced samples
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		_, err1 := recommend(ctx)
		plain.add(time.Since(t0))
		t1 := time.Now()
		_, err2 := recommend(obs.WithTrace(ctx, obs.NewTrace()))
		traced.add(time.Since(t1))
		rep.attempted += 2
		if err1 != nil || err2 != nil {
			rep.fail("overhead recommend: %v %v", err1, err2)
		}
	}

	hits := after.PlanCacheHits - before.PlanCacheHits
	lookups := hits + after.PlanCacheMisses - before.PlanCacheMisses
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(hits) / float64(lookups)
	}
	perRec := 0.0
	if n := len(all.recCall); n > 0 {
		perRec = float64(calls) / float64(n)
	}
	layers := []struct {
		name, unit string
		v          float64
		n          int
	}{
		{"cophy.candgen_ms", "ms", all.candgen.mean(), len(all.candgen)},
		{"cophy.build_ms", "ms", all.build.mean(), len(all.build)},
		{"cophy.candidates", "count", all.cands.mean(), len(all.cands)},
		{"inum.prepare_ms", "ms", all.prepare.mean(), len(all.prepare)},
		{"inum.plan_cache_hit_ratio", "ratio", hitRatio, int(lookups)},
		{"engine.whatif_calls", "count", perRec, len(all.recCall)},
		{"cophy.solve_ms", "ms", all.solve.mean(), len(all.solve)},
		{"lagrange.iters", "count", all.iters.mean(), len(all.iters)},
		{"lagrange.gap_pct", "%", cs.gap.mean(), len(cs.gap)},
		// The daemon's RecommendResult carries no node count.
		{"bip.nodes", "count", -1, 0},
		{"lp.solve_ms", "ms", all.lpT.mean(), len(all.lpT)},
		{"persist.wal_append_ms.ingest", "ms", all.walIngest.mean(), len(all.walIngest)},
		{"persist.wal_append_ms.recommend", "ms", all.walRec.mean(), len(all.walRec)},
		{"persist.wal_bytes_per_ingest_byte", "ratio", cs.walRatio, 1},
		{"server.queue_wait_ms", "ms", all.queue.mean(), len(all.queue)},
		{"server.ingest_call_ms", "ms", all.ingestCall.mean(), len(all.ingestCall)},
		{"server.whatif_call_ms", "ms", all.whatifCall.mean(), len(all.whatifCall)},
		{"server.recommend_call_ms", "ms", all.recCall.mean(), len(all.recCall)},
		{"server.coalesced", "count", float64(after.CoalescedRequests - before.CoalescedRequests), 1},
		{"server.shed", "count", float64(after.ShedRequests - before.ShedRequests), 1},
		{"server.new_conns", "count", float64(cs.newConns), 1},
		{"http.ingest_p50_ms", "ms", cs.ingestP50, 0},
		{"http.recommend_p90_ms", "ms", cs.tail90["recommend"], 0},
		{"http.ingest_p90_ms", "ms", cs.tail90["ingest"], 0},
		{"http.whatif_p90_ms", "ms", cs.tail90["whatif"], 0},
		{"http.throughput_ops", "ops/s", cs.opsPerS, 0},
		{"process.cpu_ms_per_op", "ms", cs.cpuPerOp, 0},
		{"workload.parse_ms", "ms", all.parse.mean(), len(all.parse)},
		{"workload.live_statements", "count", float64(after.Live), 1},
		{"trace.overhead_pct", "%", 100 * (traced.median()/plain.median() - 1), len(traced)},
	}
	fmt.Println("per-layer (traced in-process replay, mean per request of the relevant kind):")
	for _, l := range layers {
		rep.note(l.name, l.v, l.unit, l.n)
		rep.set(l.name, l.unit, l.v)
	}
	return nil
}
