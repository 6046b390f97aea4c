package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"tiptop"
	"tiptop/internal/remote"
)

// interval is the refresh period of every workload: the daemon's 1 Hz.
const interval = time.Second

// warmTicks is the number of live refreshes set-up runs after the
// attach pass.
const warmTicks = 5

// anchorCount is the number of tasks exempt from churn: the count
// oracle follows them for the whole run and the pid query asks for one.
const anchorCount = 5

// rig is one tiptopd, composed as cmd/tiptopd's run/newDaemon/handler
// do (package main cannot be imported): a Monitor over a simulated
// scenario, a subscribed Recorder teeing into a Store, and a wire
// server plus the query handler on a loopback http.Server — with one
// scraper connection and one stream client attached. It must follow
// cmd/tiptopd when that composition changes.
type rig struct {
	w   workload
	rng *rand.Rand
	dir string

	sc  *tiptop.Scenario
	mon *tiptop.Monitor
	rec *tiptop.Recorder
	st  *tiptop.Store
	srv *remote.Server

	hs        *http.Server
	serveDone chan error
	base      string
	hc        *http.Client
	client    *tiptop.RemoteMonitor

	// metricsEncode holds the duration of every OpenMetrics encode the
	// wire server asked for: one per scraped refresh when its cache works.
	encodeMu      sync.Mutex
	metricsEncode series
	// setupCompaction is what the set-up compaction rewrote, and how long
	// it took.
	setupCompaction *tiptop.CompactionResult
	setupCompactMS  float64

	// pids lists the live tasks; the first anchorCount never exit.
	pids    []int
	spawned int
	// refreshes counts published refreshes, the attach pass included.
	refreshes int
}

// newRig is the set-up every run times: scenario and store build, the
// recovered history and its compaction, the attach pass and the client
// dial. dir must not exist.
func newRig(w workload, seed int64, dir string) (r *rig, err error) {
	r = &rig{w: w, rng: rand.New(rand.NewSource(seed)), dir: dir}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.sc, err = tiptop.NewScenario(w.machine); err != nil {
		return r, err
	}
	jobs := genJobs(r.rng, w.tasks)
	for _, j := range jobs {
		if err = r.spawn(j); err != nil {
			return r, err
		}
	}
	if r.mon, err = tiptop.NewSimMonitor(r.sc, tiptop.Config{Interval: interval, Screen: w.screen}); err != nil {
		return r, err
	}
	if r.st, err = tiptop.OpenStore(dir, w.store); err != nil {
		return r, err
	}
	// The history the daemon "recovered": written before the monitor
	// attaches, so the store clock carries the live refreshes on past it.
	if err = r.prefill(jobs); err != nil {
		return r, err
	}
	r.rec = tiptop.NewRecorder(tiptop.RecorderOptions{})
	r.mon.Subscribe(r.rec)
	r.rec.Tee(r.st)
	r.srv = remote.NewServer(func(w io.Writer) error {
		t := time.Now()
		err := r.rec.WriteOpenMetrics(w)
		r.encodeMu.Lock()
		r.metricsEncode.add(time.Since(t))
		r.encodeMu.Unlock()
		return err
	})

	mux := http.NewServeMux()
	mux.Handle("GET /api/v1/query", tiptop.QueryHandler(r.st, r.rec))
	r.srv.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	r.base = "http://" + ln.Addr().String()
	r.hs = &http.Server{Handler: mux}
	r.serveDone = make(chan error, 1)
	go func() { r.serveDone <- r.hs.Serve(ln) }()
	r.hc = &http.Client{Transport: &http.Transport{}}

	// The attach pass, then a few refreshes so that rings, rates and
	// buffers are warm when timing starts.
	if _, err = r.refresh(); err != nil {
		return r, err
	}
	for i := 0; i < warmTicks; i++ {
		r.sc.Advance(interval)
		if _, err = r.refresh(); err != nil {
			return r, err
		}
	}
	r.client, err = tiptop.NewRemoteMonitorWire(r.base, "json")
	return r, err
}

// prefill appends w.prefill generated refreshes at the 1 s cadence —
// the live tasks' identities with seeded, non-constant counters and
// column values (constant rows would compress unrealistically) — and
// compacts after refresh w.compactAt. Simulating hours of history
// would take the generator longer than the run.
func (r *rig) prefill(jobs []jobSpec) error {
	cols := r.mon.Columns()
	r.st.SetColumns(cols)
	cpus := float64(r.sc.Machine().NumLogical())
	share := min(1, cpus/float64(len(jobs)))
	s := &tiptop.Sample{Rows: make([]tiptop.Row, len(jobs))}
	for i, j := range jobs {
		s.Rows[i] = tiptop.Row{
			PID: r.pids[i], User: j.User, Command: j.Job.Name, State: "R",
			Columns: make([]float64, len(cols)), Events: map[string]uint64{},
			Coverage: 1, Monitored: true,
		}
	}
	for t := 1; t <= r.w.prefill; t++ {
		s.Time = time.Duration(t) * interval
		for i := range s.Rows {
			row, job := &s.Rows[i], jobs[i].Job
			cycles := 2.66e9 * share * (1 + 0.05*r.rng.NormFloat64())
			instr := cycles * job.IPC * (1 + 0.03*r.rng.NormFloat64())
			misses := instr * (1 + job.MemRefsPKI) / 1e5 * (1 + 0.2*r.rng.Float64())
			row.CPUPct = 100 * share
			row.IPC = instr / cycles
			row.Events["CYCLES"] = uint64(cycles)
			row.Events["INSTRUCTIONS"] = uint64(instr)
			row.Events["CACHE_MISSES"] = uint64(misses)
			for c := range row.Columns {
				row.Columns[c] = row.IPC*float64(c+1) + misses/instr
			}
		}
		if err := r.st.RecordSample(s); err != nil {
			return err
		}
		if t == r.w.compactAt {
			begin := time.Now()
			res, err := r.st.Compact(tiptop.CompactOptions{})
			if err != nil {
				return fmt.Errorf("set-up compaction: %w", err)
			}
			r.setupCompaction = res
			r.setupCompactMS = float64(time.Since(begin)) / float64(time.Millisecond)
		}
	}
	return nil
}

// encodeTimes returns the OpenMetrics encode durations so far, in ms.
func (r *rig) encodeTimes() series {
	r.encodeMu.Lock()
	defer r.encodeMu.Unlock()
	return append(series(nil), r.metricsEncode...)
}

func (r *rig) spawn(j jobSpec) error {
	pid, err := r.sc.StartSyntheticJob(j.User, j.Job)
	if err != nil {
		return err
	}
	r.pids = append(r.pids, pid)
	r.spawned++
	return nil
}

// refreshed is one refresh and when its three steps ended.
type refreshed struct {
	sample                        *tiptop.Sample
	sampled, converted, published time.Time
}

// refresh is the sampling goroutine's work for one tick, daemon.loop's
// body: sample (which feeds recorder and store), convert, publish.
func (r *rig) refresh() (refreshed, error) {
	var f refreshed
	s, err := r.mon.SampleNow()
	f.sampled = time.Now()
	if err != nil {
		return f, err
	}
	if err := r.st.Err(); err != nil {
		return f, fmt.Errorf("store: %w", err)
	}
	ws := r.mon.WireSample(s)
	f.converted = time.Now()
	if err := r.srv.Publish(ws); err != nil {
		return f, err
	}
	f.sample, f.published = s, time.Now()
	r.refreshes++
	return f, nil
}

// churn makes one seeded non-anchor task exit and a new one arrive.
func (r *rig) churn() error {
	i := anchorCount + r.rng.Intn(len(r.pids)-anchorCount)
	if err := r.sc.Kill(r.pids[i]); err != nil {
		return err
	}
	r.pids[i] = r.pids[len(r.pids)-1]
	r.pids = r.pids[:len(r.pids)-1]
	return r.spawn(genJob(r.rng, r.spawned))
}

// get fetches one URL of the rig's daemon over the scraper connection.
func (r *rig) get(path string) (body []byte, etag string, err error) {
	resp, err := r.hc.Get(r.base + path)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: %s: %.200s", path, resp.Status, body)
	}
	return body, resp.Header.Get("ETag"), nil
}

// stopServing disconnects the consumers and shuts the HTTP side down,
// leaving monitor and store usable.
func (r *rig) stopServing() {
	if r.client != nil {
		r.client.Close()
		r.client = nil
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = r.hs.Shutdown(ctx)
		cancel()
		<-r.serveDone
		r.hs = nil
	}
	if r.hc != nil {
		r.hc.CloseIdleConnections()
	}
}

// close tears the rig down and removes its store.
func (r *rig) close() error {
	r.stopServing()
	var errs []error
	if r.mon != nil {
		errs = append(errs, r.mon.Close())
	}
	if r.st != nil {
		errs = append(errs, r.st.Close())
		r.st = nil
	}
	errs = append(errs, os.RemoveAll(r.dir))
	return errors.Join(errs...)
}
