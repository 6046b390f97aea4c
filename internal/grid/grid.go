// Package grid implements the data-center substrate of §3.4: an
// SGE-style batch system ("The scheduler is based on Sun Grid Engine")
// with priority queues, per-node slot limits, delayed submission and a
// periodic dispatcher, running jobs on one or more simulated nodes. It
// produces the workloads behind Figure 1 (a snapshot of a 16-logical-core
// node shared by three users) and Figure 10 (user2's five jobs arriving
// and depressing user1's IPC through shared-cache contention).
package grid

import (
	"fmt"
	"sort"
	"time"

	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/sched"
	"tiptop/internal/sim/workload"
)

// Queue is a job class: higher priority queues dispatch first, and a
// queue may be capped to a number of slots per node (the SGE
// slots-per-queue-instance setting).
type Queue struct {
	Name     string
	Priority int
	// SlotsPerNode caps how many jobs of this queue run concurrently
	// on one node; 0 = limited only by the node's logical cores.
	SlotsPerNode int
	// MaxRuntime kills jobs exceeding their wall-clock allowance
	// (0 = unlimited). SGE queues are segregated by run time.
	MaxRuntime time.Duration
}

// JobState tracks a job through the system.
type JobState int

// Job lifecycle states.
const (
	JobPending JobState = iota
	JobRunning
	JobDone
	JobKilled
)

func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobKilled:
		return "killed"
	}
	return "?"
}

// JobSpec describes a submission.
type JobSpec struct {
	User  string
	Name  string
	Queue string
	// Runner is the job body. Each job owns its runner.
	Runner workload.Runner
	// SubmitAt delays eligibility until the given simulated time.
	SubmitAt time.Duration
	// Affinity optionally pins the job (taskset semantics).
	Affinity machine.AffinityMask
}

// Job is a submitted job.
type Job struct {
	ID    int
	Spec  JobSpec
	State JobState
	// Node and Task are set once running.
	Node      *Node
	Task      *sched.Task
	StartedAt time.Duration
	EndedAt   time.Duration
}

// Node is one machine of the cluster.
type Node struct {
	Name   string
	Kernel *sched.Kernel
}

// running counts live jobs on the node (total and per queue).
func (c *Cluster) running(n *Node) (total int, perQueue map[string]int) {
	perQueue = map[string]int{}
	for _, j := range c.jobs {
		if j.State == JobRunning && j.Node == n {
			total++
			perQueue[j.Spec.Queue]++
		}
	}
	return total, perQueue
}

// Cluster is the batch system: nodes, queues, and the job list.
type Cluster struct {
	nodes  []*Node
	queues map[string]*Queue
	jobs   []*Job
	nextID int
	// DispatchEvery is the scheduler pass period (default 1 s).
	DispatchEvery time.Duration
	now           time.Duration
}

// NewCluster builds a cluster over the given nodes.
func NewCluster(nodes ...*Node) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("grid: need at least one node")
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		if n == nil || n.Kernel == nil {
			return nil, fmt.Errorf("grid: nil node or kernel")
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("grid: duplicate node %q", n.Name)
		}
		seen[n.Name] = true
	}
	return &Cluster{
		nodes:         nodes,
		queues:        map[string]*Queue{},
		nextID:        1,
		DispatchEvery: time.Second,
	}, nil
}

// AddQueue registers a queue.
func (c *Cluster) AddQueue(q Queue) error {
	if q.Name == "" {
		return fmt.Errorf("grid: queue needs a name")
	}
	if _, dup := c.queues[q.Name]; dup {
		return fmt.Errorf("grid: duplicate queue %q", q.Name)
	}
	cp := q
	c.queues[q.Name] = &cp
	return nil
}

// Queues returns the queue names, sorted by descending priority.
func (c *Cluster) Queues() []string {
	names := make([]string, 0, len(c.queues))
	for n := range c.queues {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := c.queues[names[i]], c.queues[names[j]]
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		return a.Name < b.Name
	})
	return names
}

// Submit enqueues a job.
func (c *Cluster) Submit(spec JobSpec) (*Job, error) {
	if spec.Runner == nil {
		return nil, fmt.Errorf("grid: job %q has no runner", spec.Name)
	}
	if _, ok := c.queues[spec.Queue]; !ok {
		return nil, fmt.Errorf("grid: unknown queue %q", spec.Queue)
	}
	j := &Job{ID: c.nextID, Spec: spec, State: JobPending}
	c.nextID++
	c.jobs = append(c.jobs, j)
	return j, nil
}

// Nodes returns the cluster's nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Now returns the cluster clock (max over node kernels' time; they
// advance in lock step).
func (c *Cluster) Now() time.Duration { return c.now }

// Advance runs the cluster forward: at every dispatch interval, pending
// jobs are placed (highest queue priority first, then submission order)
// onto the node with the most free slots, and finished or overrunning
// jobs are reaped.
func (c *Cluster) Advance(d time.Duration) {
	end := c.now + d
	for c.now < end {
		step := c.DispatchEvery
		if rem := end - c.now; rem < step {
			step = rem
		}
		c.dispatch()
		for _, n := range c.nodes {
			n.Kernel.Advance(step)
		}
		c.now += step
		c.reap()
	}
}

// dispatch starts eligible pending jobs.
func (c *Cluster) dispatch() {
	// Order: queue priority desc, then job id (submission order).
	pending := make([]*Job, 0)
	for _, j := range c.jobs {
		if j.State == JobPending && j.Spec.SubmitAt <= c.now {
			pending = append(pending, j)
		}
	}
	sort.SliceStable(pending, func(i, j int) bool {
		qa, qb := c.queues[pending[i].Spec.Queue], c.queues[pending[j].Spec.Queue]
		if qa.Priority != qb.Priority {
			return qa.Priority > qb.Priority
		}
		return pending[i].ID < pending[j].ID
	})
	for _, j := range pending {
		node := c.pickNode(j)
		if node == nil {
			continue // no free slot anywhere; stays pending
		}
		task := node.Kernel.Spawn(j.Spec.User, j.Spec.Name, j.Spec.Runner, j.Spec.Affinity)
		j.State = JobRunning
		j.Node = node
		j.Task = task
		j.StartedAt = c.now
	}
}

// pickNode selects the least-loaded node with room in the job's queue.
func (c *Cluster) pickNode(j *Job) *Node {
	q := c.queues[j.Spec.Queue]
	var best *Node
	bestFree := -1
	for _, n := range c.nodes {
		total, perQueue := c.running(n)
		capacity := n.Kernel.Machine().NumLogical()
		if total >= capacity {
			continue
		}
		if q.SlotsPerNode > 0 && perQueue[q.Name] >= q.SlotsPerNode {
			continue
		}
		if free := capacity - total; free > bestFree {
			bestFree = free
			best = n
		}
	}
	return best
}

// reap marks finished jobs and enforces queue runtime limits.
func (c *Cluster) reap() {
	for _, j := range c.jobs {
		if j.State != JobRunning {
			continue
		}
		if j.Task.State() == sched.TaskExited {
			j.State = JobDone
			j.EndedAt = c.now
			continue
		}
		q := c.queues[j.Spec.Queue]
		if q.MaxRuntime > 0 && c.now-j.StartedAt > q.MaxRuntime {
			_ = j.Node.Kernel.Kill(j.Task.ID().PID)
			j.State = JobKilled
			j.EndedAt = c.now
		}
	}
}

// DefaultQueues returns a queue set shaped like the paper's production
// SGE 6.2u5 configuration: "sixteen queues for jobs of different
// wall-clock run time, memory requirements, and urgency (ASAP vs.
// overnight)". Four runtime classes x two memory classes x two urgency
// classes; urgent queues outrank overnight ones, shorter queues outrank
// longer ones within an urgency class.
func DefaultQueues() []Queue {
	runtimes := []struct {
		name string
		max  time.Duration
	}{
		{"15m", 15 * time.Minute},
		{"2h", 2 * time.Hour},
		{"24h", 24 * time.Hour},
		{"inf", 0},
	}
	memories := []string{"std", "bigmem"}
	urgencies := []struct {
		name string
		base int
	}{
		{"asap", 100},
		{"overnight", 0},
	}
	var out []Queue
	for _, u := range urgencies {
		for ri, r := range runtimes {
			for _, m := range memories {
				out = append(out, Queue{
					Name:       u.name + "-" + r.name + "-" + m,
					Priority:   u.base + (len(runtimes) - ri),
					MaxRuntime: r.max,
				})
			}
		}
	}
	return out
}

// Utilization returns the fraction of a node's logical CPUs occupied by
// running jobs.
func (c *Cluster) Utilization(n *Node) float64 {
	total, _ := c.running(n)
	return float64(total) / float64(n.Kernel.Machine().NumLogical())
}
