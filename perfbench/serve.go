package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// serveSpec describes a serve workload: a closed-loop request mix sent
// by `clients` goroutines, each replaying its own fixed sequence.
type serveSpec struct {
	clients int
	mix     []mixEntry
	// opsPerSecond is the completed-request rate of this mix on the
	// 2-CPU box the benchmark was sized on. Each client's sequence
	// length is --seconds × opsPerSecond / clients, a constant, so every
	// commit replays the same requests; a faster commit finishes sooner
	// instead of doing more work.
	opsPerSecond float64
}

func serveSpecOf(cfg config) serveSpec {
	if cfg.workload == "serve-recommend" {
		return serveSpec{clients: 1, opsPerSecond: 150,
			mix: []mixEntry{{"ingest", 1}, {"recommend", 1}, {"whatif", 2}}}
	}
	return serveSpec{clients: 2, opsPerSecond: 650,
		mix: []mixEntry{{"ingest", 8}, {"whatif", 8}, {"recommend", 1}}}
}

// serveSetups is how many times a serve run boots cophyd on the warm
// state; setup_s adds the median boot to the warm-up.
const serveSetups = 7

// Warm-up: ingest batches are sent until the live workload stops
// growing — at least minWarmBlocks blocks of warmBlock batches (ten
// half-lives of the default decay), then until one block grows the
// live set by less than 1%.
const (
	warmBlock     = 64
	minWarmBlocks = 10
	maxWarmBlocks = 32
)

// cophyd's default decay settings, which the in-process daemons and the
// checks' shadow stream mirror.
const (
	halfLife  = 64
	minWeight = 1e-3
)

// outcome is one timed request as the client saw it.
type outcome struct {
	op      *op
	warm    bool // a boot's first, cold recommendation: checked, not timed
	status  int  // 0 on transport error
	body    []byte
	latency time.Duration
	// recommend only: the daemon's snapshot holds at least lo and at
	// most hi ingest batches (in WAL order).
	lo, hi int64
}

// daemonProc is a running cophyd child.
type daemonProc struct {
	cmd  *exec.Cmd
	base string
	out  sync.WaitGroup
}

// startDaemon execs cophyd at default scale with a durable, fsynced
// data directory and waits until it listens.
func startDaemon(root, dir string, procs int) (*daemonProc, error) {
	bin := filepath.Join(root, ".bench_build", "cophyd")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dir, "-fsync")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting cophyd (run perfbench/run.sh to build it): %w", err)
	}
	d := &daemonProc{cmd: cmd}
	addr := make(chan string, 1)
	d.out.Add(1)
	go func() {
		defer d.out.Done()
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "cophyd listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.stop()
			return nil, errors.New("cophyd exited before listening")
		}
		d.base = "http://" + a
		return d, nil
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("cophyd did not listen within 60s")
	}
}

// stop kills the daemon without a shutdown snapshot, so its WAL stays
// as the run left it, waits for it, and returns its peak RSS.
func (d *daemonProc) stop() float64 {
	_ = d.cmd.Process.Kill() // it may already have exited
	_ = d.cmd.Wait()         // a killed child reports "signal: killed"
	d.out.Wait()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// client is one load-generator connection: a transport limited to one
// keep-alive connection, with every newly dialled connection counted.
type client struct {
	hc       *http.Client
	base     string
	newConns *atomic.Int64
}

func newClient(base string, newConns *atomic.Int64) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, newConns: newConns}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response, so the
// connection returns to the pool for the next request.
func (c *client) do(method, path, body string) (int, []byte, error) {
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				c.newConns.Add(1)
			}
		},
	})
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

type ingestResp struct {
	Accepted int `json:"accepted"`
	Live     int `json:"live"`
}

type whatifResp struct {
	Cost     float64 `json:"cost"`
	BaseCost float64 `json:"base_cost"`
}

type recommendResp struct {
	Indexes      []indexSpec `json:"indexes"`
	EstCost      float64     `json:"est_cost"`
	Lower        float64     `json:"lower"`
	Gap          float64     `json:"gap"`
	Iters        int         `json:"iters"`
	WorkloadSize int         `json:"workload_size"`
	Candidates   int         `json:"candidates"`
	Infeasible   bool        `json:"infeasible"`
}

type statsResp struct {
	Live      int   `json:"live_statements"`
	Coalesced int64 `json:"coalesced_requests"`
	Shed      int64 `json:"shed_requests"`
}

// warmUp ingests warm-up batches until the live set levels off and
// returns how many it sent. ingest returns the live-set size after the
// batch.
func warmUp(ops []op, ingest func(*op) (int, error)) (int, error) {
	prev := 0
	n := 0
	for block := 0; block < maxWarmBlocks; block++ {
		live := 0
		for i := 0; i < warmBlock; i++ {
			l, err := ingest(&ops[n])
			if err != nil {
				return n, fmt.Errorf("warm-up ingest %d: %w", n, err)
			}
			live = l
			n++
		}
		if block+1 >= minWarmBlocks && float64(live-prev) < 0.01*float64(prev) {
			break
		}
		prev = live
	}
	return n, nil
}

// warmState runs the warm-up once, in-process: a server.Daemon built
// like cophyd's, over a store in dir, ingests the warm-up batches
// through Daemon.Ingest, the code path behind /ingest. Every set-up
// repetition then boots cophyd on a copy of dir, so its recovery
// replays the same live workload. (Replaying the warm-up over HTTP
// instead, one fsync per batch, made set-up time mostly a measure of
// the disk's fsync tail: its spread across runs was 0.3–0.7 of its
// median.) It returns the number of batches ingested.
func warmState(warm []op, dir string) (int, error) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	d, err := server.NewCtx(ctx, daemonConfig(cat, engine.New(cat, engine.SystemA()), store))
	if err != nil {
		store.Close()
		return 0, err
	}
	n, err := warmUp(warm, func(o *op) (int, error) {
		r, err := d.Ingest(ctx, o.sql, 0)
		if err == nil && r.Accepted != o.statements {
			err = fmt.Errorf("accepted %d of %d statements", r.Accepted, o.statements)
		}
		return r.Live, err
	})
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// copyFiles copies the regular files of src into a new directory dst.
func copyFiles(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// serveRun is one e2e run against a cophyd child.
type serveRun struct {
	setupS     float64
	warmN      int
	outcomes   []outcome
	wall       time.Duration
	peakRSS    float64
	newConns   int64
	walBytes   int64 // data-directory growth over the timed sequence
	sqlBytes   int64 // SQL bytes the timed sequence's ingests carried
	before     statsResp
	after      statsResp
	walIngests []string      // ingest SQL in WAL order
	cpu        time.Duration // daemon CPU time over the timed sequence
	// partialViews counts recommendations whose live workload held
	// part of an ingest batch.
	partialViews int
}

// e2eServe boots cophyd on a copy of the warm state in warmDir (warmN
// batches), sends the first, cold recommendation, then replays the
// clients' timed sequences over HTTP, and stops it. setupS runs from
// exec to the first recommendation's answer. With no sequences the run
// is a set-up repetition and ends there. The data directory is removed
// on return; its ingest records are kept in walIngests.
func e2eServe(cfg config, spec serveSpec, warmDir string, warmN int, seqs [][]op, dir string) (*serveRun, error) {
	run := &serveRun{warmN: warmN}
	defer os.RemoveAll(dir)
	if err := copyFiles(warmDir, dir); err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err := startDaemon(cfg.root, dir, cfg.procs)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	var newConns atomic.Int64
	clients := make([]*client, spec.clients)
	for i := range clients {
		clients[i] = newClient(d.base, &newConns)
		defer clients[i].close()
	}
	// sent counts ingest batches sent, acked those acknowledged, the
	// warm-up's included; a recommendation's snapshot lies between the
	// two.
	var sent, acked atomic.Int64
	sent.Store(int64(warmN))
	acked.Store(int64(warmN))
	var sqlBytes atomic.Int64
	ingestHTTP := func(c *client, o *op) (int, []byte, error) {
		sent.Add(1)
		code, body, err := c.do("POST", "/ingest", o.body)
		if err == nil && code == http.StatusOK {
			acked.Add(1)
			sqlBytes.Add(int64(len(o.sql)))
		}
		return code, body, err
	}

	first := recommendOp()
	oc := outcome{op: &first, warm: true, lo: int64(warmN), hi: int64(warmN)}
	oc.status, oc.body, err = clients[0].do("POST", "/recommend", first.body)
	if err == nil && oc.status != http.StatusOK {
		err = fmt.Errorf("first recommend: status %d: %s", oc.status, oc.body)
	}
	if err != nil {
		return nil, err
	}
	run.outcomes = append(run.outcomes, oc)
	run.setupS = time.Since(t0).Seconds()
	if seqs == nil {
		return run, nil
	}
	if err := getJSON(clients[0], "/stats", &run.before); err != nil {
		return nil, err
	}
	dir0 := dirBytes(dir)

	results := make([][]outcome, spec.clients)
	cpu0 := procCPU(d.cmd.Process.Pid)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range seqs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := clients[ci]
			out := make([]outcome, len(seqs[ci]))
			for i := range seqs[ci] {
				o := &seqs[ci][i]
				oc := outcome{op: o}
				var err error
				t := time.Now()
				switch o.kind {
				case "ingest":
					oc.status, oc.body, err = ingestHTTP(c, o)
				case "whatif":
					oc.status, oc.body, err = c.do("POST", "/whatif", o.body)
				default:
					oc.lo = acked.Load()
					oc.status, oc.body, err = c.do("POST", "/recommend", o.body)
					oc.hi = sent.Load()
				}
				oc.latency = time.Since(t)
				if err != nil {
					oc.status = 0
					oc.body = []byte(err.Error())
				}
				out[i] = oc
			}
			results[ci] = out
		}(ci)
	}
	wg.Wait()
	run.wall = time.Since(start)
	run.cpu = procCPU(d.cmd.Process.Pid) - cpu0
	for _, r := range results {
		run.outcomes = append(run.outcomes, r...)
	}
	if err := getJSON(clients[0], "/stats", &run.after); err != nil {
		return nil, err
	}
	run.newConns = newConns.Load()
	run.sqlBytes = sqlBytes.Load()
	run.walBytes = dirBytes(dir) - dir0
	run.peakRSS = d.stop()
	stopped = true

	// Read the WAL back: its ingest records give the order in which the
	// daemon applied concurrent batches.
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return nil, err
	}
	_, err = store.Recover(nil, func(rec []byte) error {
		// Session records (about 160 KB each) are not needed; skip
		// decoding them.
		if bytes.HasPrefix(rec, []byte(`{"type":"session"`)) {
			return nil
		}
		var r struct {
			Type string `json:"type"`
			SQL  string `json:"sql"`
		}
		if err := json.Unmarshal(rec, &r); err != nil {
			return err
		}
		if r.Type == "ingest" {
			run.walIngests = append(run.walIngests, r.SQL)
		}
		return nil
	})
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("reading the WAL back: %w", err)
	}
	return run, nil
}

func getJSON(c *client, path string, into any) error {
	code, body, err := c.do("GET", path, "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, code)
	}
	return json.Unmarshal(body, into)
}

// checkServe verifies every response of a run and returns the quality
// of its recommendations: mean gap and mean ground-truth improvement,
// in percent.
func checkServe(run *serveRun, cat *catalog.Catalog, chk *checker, rep *report) (gap, impr samples) {
	type pending struct {
		oc    *outcome
		res   recommendResp
		match bool
	}
	var recs []*pending
	for i := range run.outcomes {
		oc := &run.outcomes[i]
		rep.attempted++
		if oc.status != http.StatusOK {
			rep.fail("%s: status %d: %.200s", oc.op.kind, oc.status, oc.body)
			continue
		}
		switch oc.op.kind {
		case "ingest":
			var r ingestResp
			if err := json.Unmarshal(oc.body, &r); err != nil || r.Accepted != oc.op.statements {
				rep.fail("ingest accepted %d of %d statements (%v)", r.Accepted, oc.op.statements, err)
			}
		case "whatif":
			var r whatifResp
			if err := json.Unmarshal(oc.body, &r); err != nil {
				rep.fail("whatif: %v", err)
			} else if r.Cost > r.BaseCost && !near(r.Cost, r.BaseCost) {
				rep.fail("whatif: cost %.6g above base cost %.6g for a SELECT", r.Cost, r.BaseCost)
			}
		default:
			p := &pending{oc: oc}
			if err := json.Unmarshal(oc.body, &p.res); err != nil {
				rep.fail("recommend: %v", err)
				continue
			}
			if p.res.Infeasible {
				rep.fail("recommend: infeasible")
				continue
			}
			recs = append(recs, p)
		}
	}

	// Replay the WAL's ingest records into a shadow stream configured
	// like the daemon's. A recommendation solved over the live workload
	// after some k batches, lo ≤ k ≤ hi; it passes when one of those
	// snapshots has its workload size and reproduces its estimate, and
	// that snapshot passes every recommendation check. The daemon takes
	// its snapshot under the stream's lock only, not the ingest's, so a
	// snapshot may also hold part of batch k+1; those states are tried
	// too, and counted.
	stream := workload.NewStream(workload.StreamConfig{HalfLife: halfLife, MinWeight: minWeight})
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].oc.lo < recs[j].oc.lo })
	next := 0 // first recommendation whose window may still be open
	// try tests the stream's current state, which lies between k and
	// k+1 batches when partial is set, against the open windows.
	try := func(k int64, partial bool) {
		var snap *workload.Workload
		for i := next; i < len(recs) && recs[i].oc.lo <= k; i++ {
			p := recs[i]
			if p.match || k > p.oc.hi || (partial && k+1 > p.oc.hi) {
				continue
			}
			if snap == nil {
				snap = stream.Snapshot()
			}
			if snap.Size() != p.res.WorkloadSize {
				continue
			}
			ixs := make([]*catalog.Index, len(p.res.Indexes))
			for j, sp := range p.res.Indexes {
				ixs[j] = &catalog.Index{Table: sp.Table, Key: sp.Key, Include: sp.Include, Clustered: sp.Clustered}
			}
			est, err := chk.inumCost(chk.inum, snap, chk.configOf(ixs))
			if err != nil || !near(est, p.res.EstCost) {
				continue
			}
			p.match = true
			if partial {
				run.partialViews++
			}
			v := chk.recommendation(chk.inum, snap, ixs, p.res.EstCost, p.res.Lower)
			for _, pr := range v.problems {
				rep.fail("recommend after %d batches: %s", k, pr)
			}
			gap = append(gap, 100*p.res.Gap)
			impr = append(impr, 100*v.improvement)
		}
	}
	for k := int64(0); next < len(recs); k++ {
		try(k, false)
		for next < len(recs) && (recs[next].match || recs[next].oc.hi <= k) {
			if !recs[next].match {
				rep.fail("recommend (est %.10g, %d statements, after %d..%d batches): no live workload reproduces its estimate",
					recs[next].res.EstCost, recs[next].res.WorkloadSize, recs[next].oc.lo, recs[next].oc.hi)
			}
			next++
		}
		if k == int64(len(run.walIngests)) {
			break
		}
		w, err := workload.Parse(cat, run.walIngests[k])
		if err != nil {
			rep.fail("WAL ingest record %d: %v", k+1, err)
			return
		}
		for _, s := range w.Statements {
			stream.Observe(s)
			try(k, true)
		}
		stream.Tick()
	}
	for ; next < len(recs); next++ {
		if !recs[next].match {
			rep.fail("recommend: window beyond the WAL (%d..%d of %d batches)", recs[next].oc.lo, recs[next].oc.hi, len(run.walIngests))
		}
	}
	return gap, impr
}

func runServe(cfg config, rep *report) error {
	spec := serveSpecOf(cfg)
	if spec.clients > runtime.NumCPU() {
		return fmt.Errorf("%s runs %d clients, one per CPU, and this machine has %d CPUs", cfg.workload, spec.clients, runtime.NumCPU())
	}
	perClient := int(float64(cfg.seconds)*spec.opsPerSecond) / spec.clients
	warm := warmupOps(cfg.seed, maxWarmBlocks*warmBlock)
	seqs := make([][]op, spec.clients)
	for i := range seqs {
		seqs[i] = clientOps(cfg.seed, i, perClient, spec.mix)
	}
	scratch := filepath.Join(cfg.root, ".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())

	// Set-up: the warm-up runs once (warmState); then each repetition
	// boots cophyd on a copy of the warm state and waits for the first
	// recommendation. The last daemon serves the timed sequence.
	// setup_s is the warm-up time plus the median repetition. (The
	// traced run needs no set-up figure and boots once.)
	warmDir := filepath.Join(scratch, fmt.Sprintf("warm-%d", os.Getpid()))
	defer os.RemoveAll(warmDir)
	t0 := time.Now()
	warmN, err := warmState(warm, warmDir)
	if err != nil {
		return err
	}
	warmS := time.Since(t0).Seconds()
	n := serveSetups
	if cfg.trace {
		n = 1
	}
	var bootS samples
	var run *serveRun
	for i := 0; i < n; i++ {
		dir := filepath.Join(scratch, fmt.Sprintf("cophyd-%d-%d", os.Getpid(), i))
		var s [][]op
		if i == n-1 {
			s = seqs
		}
		if run, err = e2eServe(cfg, spec, warmDir, warmN, s, dir); err != nil {
			return err
		}
		bootS = append(bootS, run.setupS)
	}
	setupS := warmS + bootS.median()
	// The warm-up ingests count as attempted: warmState checked each.
	rep.attempted += int64(warmN)

	chk := newChecker(cat, eng)
	t0 = time.Now()
	gap, impr := checkServe(run, cat, chk, rep)
	if run.newConns != int64(spec.clients) {
		rep.fail("the load generator opened %d connections for %d clients", run.newConns, spec.clients)
	}
	fmt.Fprintf(os.Stderr, "warm-up %.2fs, boot to first recommend %.2fs, timed sequence %.1fs, checks %.1fs\n",
		warmS, bootS.median(), run.wall.Seconds(), time.Since(t0).Seconds())
	lat := map[string]*samples{"ingest": {}, "whatif": {}, "recommend": {}}
	completed := 0
	for _, oc := range run.outcomes {
		if oc.status == http.StatusOK && !oc.warm {
			lat[oc.op.kind].add(oc.latency)
			completed++
		}
	}
	cs := clientSide{
		gap:       gap,
		ingestP50: lat["ingest"].median(),
		tail90:    map[string]float64{},
		opsPerS:   float64(completed) / run.wall.Seconds(),
		cpuPerOp:  ms(run.cpu) / float64(completed),
		newConns:  run.newConns,
	}
	if run.sqlBytes > 0 {
		cs.walRatio = float64(run.walBytes) / float64(run.sqlBytes)
	}

	fmt.Printf("%s: %d client(s), %d requests each, warm-up %d batches, live %d→%d statements\n",
		cfg.workload, spec.clients, perClient, run.warmN, run.before.Live, run.after.Live)
	rep.note("setup_s", setupS, "s", len(bootS))
	rep.note("peak_rss_mb", run.peakRSS, "MB", 1)
	for _, k := range []string{"recommend", "ingest", "whatif"} {
		s := *lat[k]
		cs.tail90[k] = s.quantile(0.9)
		rep.note(k+"_p50_ms", s.median(), "ms", len(s))
		if s.tailOK(0.99) {
			rep.note(k+"_p99_ms", s.quantile(0.99), "ms", len(s))
		} else {
			rep.note(k+"_p90_ms (too few samples for p99)", cs.tail90[k], "ms", len(s))
		}
	}
	rep.note("throughput_ops", cs.opsPerS, "ops/s", completed)
	rep.note("recommend_gap_pct", gap.mean(), "%", len(gap))
	rep.note("recommend_improvement_pct", impr.mean(), "%", len(impr))
	rep.note("error_rate", float64(rep.failed)/float64(rep.attempted), "ratio", int(rep.attempted))
	rep.note("workload.live_statements", float64(run.after.Live), "count", 1)
	rep.note("server.new_conns", float64(run.newConns), "count", 1)
	rep.note("recommends that saw a partial ingest batch", float64(run.partialViews), "count", len(gap))

	if !cfg.trace {
		rep.set("setup_s", "s", setupS)
		rep.set("peak_rss_mb", "MB", run.peakRSS)
		rep.set("recommend_p50_ms", "ms", lat["recommend"].median())
		rep.set("whatif_p50_ms", "ms", lat["whatif"].median())
		rep.set("improvement_pct", "%", impr.mean())
		return nil
	}
	return tracedServe(cfg, warmDir, seqs, cs, rep)
}

// clientSide carries the figures of the HTTP run that the traced run
// reports among its per-layer metrics.
type clientSide struct {
	gap       samples            // final gap of each recommendation, %
	ingestP50 float64            // ms
	tail90    map[string]float64 // p90 latency per request kind, ms
	opsPerS   float64
	cpuPerOp  float64 // daemon CPU milliseconds per completed request
	newConns  int64
	walRatio  float64 // data directory growth ÷ ingested SQL bytes
}
