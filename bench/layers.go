package main

import (
	"context"
	"os"
	"time"

	"dsr/bench/workload"
	"dsr/internal/dsr"
	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
	"dsr/internal/scc"
	"dsr/internal/serve"
	"dsr/internal/shard"
	"dsr/internal/wire"
)

// Isolated layer timings: each layer's public functions called
// directly, outside any load, on inputs the seed fixes (the graph, the
// query streams) or the traced run captured (wire batches). Each time
// is the median over `passes` passes; within a pass, cheap calls are
// timed as a loop and divided, so the clock's own cost vanishes.
const passes = 5

// timeMedian runs fn passes times and returns the median duration.
func timeMedian(fn func()) time.Duration {
	ds := make([]float64, passes)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// sink keeps results alive so the compiler cannot drop the calls.
var sink int

// setupLayers times what a shard does between exec and listen, and the
// coordinator's stitch, layer by layer, on the booted fleet's own
// partitioning and shards.
func setupLayers(m metrics, g *graph.Graph, graphPath string, f *localFleet) error {
	k := len(f.shards)
	var err error
	m.set("graph.load_ms", "ms", ms(timeMedian(func() {
		if _, e := graph.LoadEdgeListFile(graphPath); e != nil {
			err = e
		}
	})))
	if err != nil {
		return err
	}
	loc, err := locality.ParseSpec(fleets["loc"].Partitioner)
	if err != nil {
		return err
	}
	m.set("partition.hash_ms", "ms", ms(timeMedian(func() { graph.Hash().Partition(g, k) })))
	m.set("partition.locality_ms", "ms", ms(timeMedian(func() { loc.Partition(g, k) })))

	// Partition 0 stands for all: partitions are balanced and a shard
	// process pays for exactly one.
	pt := f.pt
	var sub *partition.Subgraph
	m.set("partition.extract_ms", "ms", ms(timeMedian(func() { sub = partition.ExtractOne(g, pt, 0) })))
	st := partition.ComputeStats(g, pt)
	m.set("partition.boundary_vertices", "count", float64(st.BoundaryVertices))
	m.set("partition.cut_edges", "count", float64(st.CutEdges))

	var cond *scc.Condensation
	m.set("scc.condense_ms", "ms", ms(timeMedian(func() { cond = scc.Condense(sub, nil) })))
	m.set("scc.index_ms", "ms", ms(timeMedian(func() { sink += scc.BuildIndex(cond, sub.Exits).NumExits() })))
	comps := 0
	for p := range f.shards {
		comps += scc.Condense(partition.ExtractOne(g, pt, p), nil).N
	}
	m.set("scc.components_per_vertex", "ratio", float64(comps)/float64(g.NumVertices()))

	// Stitch: the coordinator's connect over shards whose summaries are
	// already built, so what is timed is summary hand-over and
	// stitchBoundary, not index builds.
	shards := f.firstReplicas()
	m.set("dsr.stitch_ms", "ms", ms(timeMedian(func() {
		lb := shard.NewLoopback(shards)
		eng, e := dsr.ConnectTransport(context.Background(), lb, len(shards), g.NumVertices(), dsr.Options{})
		if e != nil {
			err = e
			lb.Close()
			return
		}
		eng.Close()
	})))
	m.set("dsr.boundary_vertices", "count", float64(f.eng.NumBoundary()))
	m.set("dsr.resident_bytes", "B", float64(f.eng.ResidentBytes()))
	return err
}

// cacheLayers times serve.Key and the result cache at its production
// capacity: hits on resident keys, misses on absent ones, and puts that
// each evict (the cache is full), which is what every miss-path query
// pays.
func cacheLayers(m metrics, seed uint64, n int) {
	const capacity = 4096
	pool := workload.NewPool(seed, 2*capacity, n)
	keys := make([]string, len(pool.Queries))
	m.set("serve.key_ns", "ns", float64(timeMedian(func() {
		for i, q := range pool.Queries {
			keys[i] = serve.Key(q.S, q.T)
		}
	}))/float64(len(keys)))

	c := serve.NewCache(capacity, nil)
	// Fill the protected segment with the first half (put, then touch).
	hot := keys[:capacity*3/4]
	for _, k := range hot {
		c.Put(k, true)
		c.Get(k)
	}
	cold := keys[capacity:]
	m.set("serve.cache_get_hit_ns", "ns", float64(timeMedian(func() {
		for _, k := range hot {
			if _, ok := c.Get(k); ok {
				sink++
			}
		}
	}))/float64(len(hot)))
	m.set("serve.cache_get_miss_ns", "ns", float64(timeMedian(func() {
		for _, k := range cold {
			if _, ok := c.Get(k); ok {
				sink++
			}
		}
	}))/float64(len(cold)))
	// Alternate two key sets larger than probation, so every put
	// inserts a new entry and evicts an old one.
	sets := [2][]string{cold[:capacity/2], cold[capacity/2:]}
	turn := 0
	m.set("serve.cache_put_ns", "ns", float64(timeMedian(func() {
		for _, k := range sets[turn%2] {
			c.Put(k, false)
		}
		turn++
	}))/float64(capacity/2))
}

// replayLayers times the wire codec and Shard.Run on the batches the
// traced run captured. shards are the fleet's own (idle by now).
func replayLayers(m metrics, batches []*capturedBatch, shards []*shard.Shard) (blocking time.Duration) {
	k := len(shards)
	nb := float64(len(batches))
	hdr := wire.BatchHeader{Trace: true, Batch: 1}

	// wire: tasks once per batch, results once per (batch, partition).
	taskFrames := make([][]byte, len(batches))
	resultFrames := make([][]byte, 0, len(batches)*k)
	var taskBytes, resultBytes int
	for i, b := range batches {
		taskFrames[i] = wire.AppendTasks(nil, hdr, b.tasks)
		taskBytes += len(taskFrames[i])
		for _, res := range b.results {
			fr := wire.AppendServerTiming(wire.AppendResults(nil, 1, true, res), wire.ServerTiming{})
			resultFrames = append(resultFrames, fr)
			resultBytes += len(fr)
		}
	}
	m.set("wire.task_bytes", "B", float64(taskBytes)/nb)
	m.set("wire.result_bytes", "B", float64(resultBytes)/(nb*float64(k)))

	var buf []byte
	encTasks := timeMedian(func() {
		for _, b := range batches {
			buf = wire.AppendTasks(buf[:0], hdr, b.tasks)
		}
	})
	var tdst []wire.Task
	var tarena []int32
	decTasks := timeMedian(func() {
		for _, fr := range taskFrames {
			_, tdst, tarena, _ = wire.DecodeTasks(fr, tdst[:0], tarena[:0])
		}
	})
	encResults := timeMedian(func() {
		for _, b := range batches {
			for _, res := range b.results {
				buf = wire.AppendResults(buf[:0], 1, true, res)
			}
		}
	})
	var rdst []wire.Result
	var rarena []uint32
	decResults := timeMedian(func() {
		for _, fr := range resultFrames {
			_, rdst, rarena, _ = wire.DecodeResults(fr, rdst[:0], rarena[:0])
		}
	})
	sink += len(buf) + len(tdst) + len(rdst)
	// Per task batch, and per reply (one partition's results).
	encT, decT := float64(encTasks)/nb, float64(decTasks)/nb
	encR, decR := float64(encResults)/(nb*float64(k)), float64(decResults)/(nb*float64(k))
	m.set("wire.encode_tasks_ns", "ns", encT)
	m.set("wire.decode_tasks_ns", "ns", decT)
	m.set("wire.encode_results_ns", "ns", encR)
	m.set("wire.decode_results_ns", "ns", decR)

	// shard.Run: every partition runs every batch (the broadcast), so a
	// round waits for the slowest and the fleet pays for the sum.
	runMax := make([]float64, len(batches))
	runSum := make([]float64, len(batches))
	for pass := 0; pass < 2; pass++ { // first pass warms scratch
		for i, b := range batches {
			runMax[i], runSum[i] = 0, 0
			for _, sh := range shards {
				t0 := time.Now()
				sink += len(sh.Run(b.tasks))
				d := float64(time.Since(t0))
				runMax[i] = max(runMax[i], d)
				runSum[i] += d
			}
		}
	}
	var results, unowned int
	for _, b := range batches {
		for _, res := range b.results {
			for _, r := range res {
				results++
				if r.Owned == 0 {
					unowned++
				}
			}
		}
	}
	slowest := median(runMax)
	m.set("shard.run_max_ns", "ns", slowest)
	m.set("shard.run_sum_ns", "ns", median(runSum))
	m.set("shard.unowned_task_share", "ratio", float64(unowned)/float64(max(results, 1)))

	// The blocking path of one round, from isolated pieces: the
	// coordinator encodes the batch once per partition, the slowest
	// shard decodes, runs and encodes, the coordinator decodes a reply.
	return time.Duration(float64(k)*encT + decT + slowest + encR + decR)
}

// writeGraph writes g as the edge-list file the shards load.
func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
