package circuit

// LevelQueue is the level-bucketed event worklist of the event-driven
// simulators: gates are pushed when one of their fanins changed and pulled
// in ascending logic level. A combinational gate sits on a strictly higher
// level than each of its fanins, so a caller that pushes the fanouts of
// every gate whose output moved evaluates each gate at most once per
// drain, after all of its changed fanins.
//
// A LevelQueue is sized to one finalized circuit and must not be shared
// between goroutines. Draining it to empty (Next returning false) leaves
// it clean for reuse; no per-use reset is needed.
type LevelQueue struct {
	level   []int    // the circuit's level table (shared, read-only)
	buckets []bucket // per level: the pending gates' span of slots
	slots   []int    // pending gate IDs, grouped by level
	queued  []bool   // gate is pending
	cur     int      // lowest level that may hold a pending gate
	pending int
}

// bucket is one level's region of LevelQueue.slots: n pending gates from
// start. The region holds the level's whole population, since a gate is
// pending at most once, so Push never allocates.
type bucket struct{ start, n int }

// NewLevelQueue returns an empty worklist over the circuit's gates. Users
// hold it by value in their scratch state and call its methods through a
// pointer to that field.
func (c *Circuit) NewLevelQueue() LevelQueue {
	c.mustFinal()
	q := LevelQueue{
		level:   c.level,
		buckets: make([]bucket, c.Depth()+1),
		slots:   make([]int, len(c.Gates)),
		queued:  make([]bool, len(c.Gates)),
	}
	for _, l := range c.level {
		q.buckets[l].n++
	}
	start := 0
	for l := range q.buckets {
		b := &q.buckets[l]
		b.start, start, b.n = start, start+b.n, 0
	}
	q.cur = len(q.buckets)
	return q
}

// Push queues gate id unless it is already pending. Level-0 gates are
// sources (primary inputs and flip-flops) and are never queued: a DFF
// fanout is a sequential edge, so a change on its D input does not move
// any value of the combinational view.
func (q *LevelQueue) Push(id int) {
	l := q.level[id]
	if l == 0 || q.queued[id] {
		return
	}
	q.queued[id] = true
	b := &q.buckets[l]
	q.slots[b.start+b.n] = id
	b.n++
	if l < q.cur {
		q.cur = l
	}
	q.pending++
}

// Next pulls a pending gate of the lowest pending level; ok is false when
// the queue is empty. Gates pushed while draining are pulled in the same
// drain.
func (q *LevelQueue) Next() (id int, ok bool) {
	for q.pending > 0 {
		if b := &q.buckets[q.cur]; b.n > 0 {
			b.n--
			id = q.slots[b.start+b.n]
			q.queued[id] = false
			q.pending--
			return id, true
		}
		q.cur++
	}
	q.cur = len(q.buckets)
	return 0, false
}
