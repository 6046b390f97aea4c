package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"

	"tiptop"
)

// The load generator's inputs. Everything random in a run is drawn
// from one rand.Rand seeded by -seed, in a fixed order, so equal seeds
// give equal task mixes, churn decisions and query windows; the
// program under test sees only what is generated here.

// jobSpec is one synthetic process: its owner and its counter profile.
type jobSpec struct {
	User string
	Job  tiptop.SyntheticJob
}

// genJob draws the i-th job: solo IPC over the simulator's whole range
// and a memory appetite from none to cache-hostile, owned by one of
// five users.
func genJob(rng *rand.Rand, i int) jobSpec {
	j := jobSpec{
		User: "user" + strconv.Itoa(rng.Intn(5)),
		Job: tiptop.SyntheticJob{
			Name:       fmt.Sprintf("job%05d", i),
			IPC:        0.25 + 2.95*rng.Float64(),
			MemRefsPKI: float64(rng.Intn(8) * 40),
		},
	}
	if rng.Intn(4) == 0 {
		j.Job.HotMB = 0.25 + rng.Float64()
		j.Job.WarmMB = j.Job.HotMB * (2 + 6*rng.Float64())
	}
	return j
}

func genJobs(rng *rand.Rand, n int) []jobSpec {
	jobs := make([]jobSpec, n)
	for i := range jobs {
		jobs[i] = genJob(rng, i)
	}
	return jobs
}

// The five query classes of one dashboard round.
var queryClasses = []string{"ipc_1h_10s", "ipc_all_1m", "topk_all_1m", "pid_all_1m", "ipc_30m_raw"}

const (
	exprIPC  = "delta(INSTRUCTIONS)/delta(CYCLES)"
	exprTopK = "topk(5, rate(CYCLES)) by user"
)

// query is one range query: the class it belongs to, the URL a
// dashboard sends and, for expression queries, what the facade needs
// to recompute the answer serially (the determinism oracle).
type query struct {
	class      string
	path       string
	expr       string
	pid        int
	from, step float64
}

// genQueries draws one round: the narrow and raw windows end at the
// store's newest record and start a seeded jitter (up to 5%) early, the
// whole-range classes read everything, and the legacy pid query asks
// for one seeded anchor task.
func genQueries(rng *rand.Rand, w workload, end float64, anchors []int) []query {
	from := func(win float64) float64 {
		f := end - win*(1+0.05*rng.Float64())
		if f < 0 {
			f = 0
		}
		return float64(int64(f))
	}
	exprQ := func(class, expr string, from, step float64) query {
		v := url.Values{"expr": {expr}, "step": {strconv.FormatFloat(step, 'f', -1, 64)}}
		if from > 0 {
			v.Set("from", strconv.FormatFloat(from, 'f', -1, 64))
		}
		return query{class: class, path: "/api/v1/query?" + v.Encode(), expr: expr, from: from, step: step}
	}
	pid := anchors[rng.Intn(len(anchors))]
	return []query{
		exprQ("ipc_1h_10s", exprIPC, from(w.narrowWin), 10),
		exprQ("ipc_all_1m", exprIPC, 0, 60),
		exprQ("topk_all_1m", exprTopK, 0, 60),
		{class: "pid_all_1m", path: "/api/v1/query?pid=" + strconv.Itoa(pid) + "&step=60", pid: pid, step: 60},
		exprQ("ipc_30m_raw", exprIPC, from(w.rawWin), 1),
	}
}
