package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"impliance/internal/fabric"
)

func testFabric(t *testing.T, data, grid, cluster int) *fabric.Fabric {
	t.Helper()
	f := fabric.New()
	t.Cleanup(f.Close)
	for i := 0; i < data; i++ {
		f.AddNode(fabric.Data)
	}
	for i := 0; i < grid; i++ {
		f.AddNode(fabric.Grid)
	}
	for i := 0; i < cluster; i++ {
		f.AddNode(fabric.Cluster)
	}
	return f
}

func TestPreferredNodeKindTable(t *testing.T) {
	cases := map[TaskKind]fabric.NodeKind{
		TaskScan:          fabric.Data,
		TaskIndexSearch:   fabric.Data,
		TaskIntraAnalysis: fabric.Data,
		TaskJoin:          fabric.Grid,
		TaskSort:          fabric.Grid,
		TaskAgg:           fabric.Grid,
		TaskInterAnalysis: fabric.Grid,
		TaskPersist:       fabric.Cluster,
		TaskCoordinate:    fabric.Cluster,
	}
	for task, want := range cases {
		if got := PreferredNodeKind(task); got != want {
			t.Errorf("%s -> %s, want %s", task, got, want)
		}
	}
}

func TestAffinityPlacerRoundRobin(t *testing.T) {
	f := testFabric(t, 3, 2, 1)
	p := NewAffinityPlacer(f)
	seen := map[fabric.NodeID]int{}
	for i := 0; i < 9; i++ {
		id, err := p.Place(TaskScan)
		if err != nil {
			t.Fatal(err)
		}
		if id.Kind != fabric.Data {
			t.Errorf("scan placed on %s", id)
		}
		seen[id]++
	}
	for id, n := range seen {
		if n != 3 {
			t.Errorf("round robin uneven: %s ran %d", id, n)
		}
	}
	if p.Fallbacks.Load() != 0 {
		t.Error("no fallbacks expected")
	}
}

func TestAffinityPlacerFallback(t *testing.T) {
	f := testFabric(t, 2, 0, 0) // no grid nodes at all
	p := NewAffinityPlacer(f)
	id, err := p.Place(TaskJoin)
	if err != nil {
		t.Fatal(err)
	}
	if id.Kind != fabric.Data {
		t.Errorf("fallback landed on %s", id)
	}
	if p.Fallbacks.Load() != 1 {
		t.Error("fallback not counted")
	}
}

func TestAffinityPlacerSkipsDeadNodes(t *testing.T) {
	f := testFabric(t, 2, 0, 0)
	dead := f.NodesOf(fabric.Data)[0]
	f.Kill(dead)
	p := NewAffinityPlacer(f)
	for i := 0; i < 4; i++ {
		id, err := p.Place(TaskScan)
		if err != nil {
			t.Fatal(err)
		}
		if id == dead {
			t.Error("placed on dead node")
		}
	}
}

func TestPlacerNoNodes(t *testing.T) {
	f := fabric.New()
	defer f.Close()
	if _, err := NewAffinityPlacer(f).Place(TaskScan); err != ErrNoNodes {
		t.Errorf("expected ErrNoNodes, got %v", err)
	}
	if _, err := NewRandomPlacer(f, 1).Place(TaskScan); err != ErrNoNodes {
		t.Errorf("expected ErrNoNodes, got %v", err)
	}
}

func TestRandomPlacerIgnoresAffinity(t *testing.T) {
	f := testFabric(t, 2, 2, 2)
	p := NewRandomPlacer(f, 42)
	kinds := map[fabric.NodeKind]int{}
	for i := 0; i < 300; i++ {
		id, err := p.Place(TaskScan)
		if err != nil {
			t.Fatal(err)
		}
		kinds[id.Kind]++
	}
	// A random placer must place scans on non-data nodes a lot.
	if kinds[fabric.Grid] == 0 || kinds[fabric.Cluster] == 0 {
		t.Errorf("random placement not random: %v", kinds)
	}
}

func TestPoolRunsTasks(t *testing.T) {
	p := NewPool(4, false)
	defer p.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		ok := p.Submit(Background, func() {
			n.Add(1)
			wg.Done()
		})
		if !ok {
			t.Fatal("submit failed")
		}
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Errorf("ran %d tasks", n.Load())
	}
	st := p.Stats(Background)
	if st.Tasks != 100 {
		t.Errorf("stats tasks = %d", st.Tasks)
	}
}

func TestPriorityInterleavingBeatsFIFO(t *testing.T) {
	// Flood with slow background tasks, then measure interactive wait.
	run := func(fifo bool) time.Duration {
		p := NewPool(2, fifo)
		defer p.Close()
		for i := 0; i < 200; i++ {
			p.Submit(Background, func() { time.Sleep(500 * time.Microsecond) })
		}
		var worst time.Duration
		for i := 0; i < 10; i++ {
			w, err := p.SubmitWait(Interactive, func() {})
			if err != nil {
				t.Fatal(err)
			}
			if w > worst {
				worst = w
			}
		}
		return worst
	}
	prio := run(false)
	fifo := run(true)
	if prio >= fifo {
		t.Errorf("priority worst-wait %v should beat FIFO %v", prio, fifo)
	}
	// Priority mode should keep interactive waits near one task slice.
	if prio > 20*time.Millisecond {
		t.Errorf("interactive wait too high under priority mode: %v", prio)
	}
}

func TestPoolDrain(t *testing.T) {
	p := NewPool(2, false)
	defer p.Close()
	var n atomic.Int64
	for i := 0; i < 50; i++ {
		p.Submit(Background, func() { n.Add(1) })
	}
	p.Drain()
	if n.Load() != 50 {
		t.Errorf("drain returned with %d/50 done", n.Load())
	}
	if p.Backlog() != 0 {
		t.Error("backlog after drain")
	}
}

func TestPoolCloseRejectsSubmits(t *testing.T) {
	p := NewPool(1, false)
	p.Close()
	if p.Submit(Interactive, func() {}) {
		t.Error("submit after close should fail")
	}
	if _, err := p.SubmitWait(Interactive, func() {}); err == nil {
		t.Error("submitwait after close should fail")
	}
	p.Close() // double close safe
}

func TestQueueStatsMeanWait(t *testing.T) {
	qs := QueueStats{Tasks: 4, TotalWait: 8 * time.Millisecond}
	if qs.MeanWait() != 2*time.Millisecond {
		t.Errorf("mean = %v", qs.MeanWait())
	}
	var empty QueueStats
	if empty.MeanWait() != 0 {
		t.Error("empty mean should be 0")
	}
}

// TestDrainCloseRace: a Close racing a Drain barrier must not deadlock —
// parked sentinel workers abort on quit and Drain returns.
func TestDrainCloseRace(t *testing.T) {
	for i := 0; i < 25; i++ {
		p := NewPool(4, i%2 == 1)
		for j := 0; j < 50; j++ {
			p.Submit(Background, func() { time.Sleep(50 * time.Microsecond) })
		}
		done := make(chan struct{})
		go func() {
			p.Drain()
			close(done)
		}()
		time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
		p.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Drain deadlocked against Close")
		}
	}
}

// TestPauseHoldsIdleWorkers: a worker already parked in take() when the
// pool is paused must not run a task submitted during the pause.
func TestPauseHoldsIdleWorkers(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		p := NewPool(1, fifo)
		// Run one task so the worker has passed the gate, then give it
		// time to park waiting for the next one.
		if _, err := p.SubmitWait(Interactive, func() {}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		p.Pause()
		ran := make(chan struct{})
		p.Submit(Interactive, func() { close(ran) })
		select {
		case <-ran:
			t.Fatalf("fifo=%v: task ran while the pool was paused", fifo)
		case <-time.After(50 * time.Millisecond):
		}
		p.Resume()
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatalf("fifo=%v: task did not run after Resume", fifo)
		}
		p.Close()
	}
}
