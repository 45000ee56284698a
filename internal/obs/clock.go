package obs

import "time"

// epoch anchors Now on the monotonic clock, immune to wall-clock steps.
var epoch = time.Now()

// Now returns monotonic nanoseconds since package init: the one timing
// source of the request clock and of the executor's per-operator stats.
func Now() int64 { return int64(time.Since(epoch)) }

// Stage is one named part of a request's wall time. A read is decode,
// lookup, plan, exec, encode; a write is decode, propagate, retract, commit,
// publish, respond (DESIGN.md "Observability" places each mark).
type Stage uint8

const (
	StageDecode    Stage = iota // read, parse and validate the request body
	StageLookup                 // evaluation source, cache key, cache get
	StagePlan                   // query.Eval: compile, plan, lower
	StageExec                   // the operator tree's NextBatch calls
	StageEncode                 // rows, replay, send and trailer
	StagePropagate              // engine lock, base insert, propagation of the adds
	StageRetract                // delete and rederive the removes
	StageCommit                 // the base's Commit: WAL staging and fsync wait
	StagePublish                // cache invalidation
	StageRespond                // the write's response body
	StageOther                  // what no mark claimed
	NumStages                   // sizes per-stage arrays
)

var stageNames = [NumStages]string{"decode", "lookup", "plan", "exec", "encode",
	"propagate", "retract", "commit", "publish", "respond", "other"}

// String is the stage's label value on onto_stage_seconds.
func (s Stage) String() string { return stageNames[s] }

// Clock is one request's stage clock. Mark charges the time since the
// previous mark (or Start) to a stage; Read charges the time since the last
// mark to StageOther, so the stages sum to the total exactly, in integer
// nanoseconds. A mark is one monotonic read and allocates nothing; the nil
// Clock is a valid no-op. A Clock is owned by one goroutine at a time.
type Clock struct {
	start int64 // the Now reading at Start
	last  int64 // the last mark, in ns since start
	ns    [NumStages]int64
}

// Start zeroes the clock and starts it now.
func (c *Clock) Start() { *c = Clock{start: Now()} }

// Mark charges the time since the previous mark to stage s.
func (c *Clock) Mark(s Stage) {
	if c != nil {
		now := Now() - c.start
		c.ns[s] += now - c.last
		c.last = now
	}
}

// Read returns each stage's nanoseconds as of now and their total.
func (c *Clock) Read() (ns [NumStages]int64, total int64) {
	if c == nil {
		return ns, 0
	}
	total = Now() - c.start
	ns = c.ns
	ns[StageOther] += total - c.last
	return ns, total
}
