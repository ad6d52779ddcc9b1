// Command dsr-query is the DSR coordinator CLI: it answers
// set-reachability queries read from stdin, either against a fleet of
// dsr-shard servers (-shards) or fully in-process (-graph).
//
// Query format, one per line:
//
//	1 2 3 | 9 10
//
// sources left of '|', targets right, whitespace-separated; the answer
// (true/false) is printed per line. With -batch all queries are read
// first and shipped as one QueryBatchErr round — one round-trip per shard for
// the entire workload. A malformed line is reported on stderr with its
// line number and skipped; the process still answers every well-formed
// query but exits non-zero, so pipelines can't silently lose queries.
//
//	dsr-query -shards 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -batch
//	dsr-query -graph edges.txt -k 4                        # in-process, no servers needed
//	dsr-query -graph edges.txt -k 4 -partitioner locality  # boundary-minimizing partitions
//
// With -shards the coordinator is graph-free: it takes no graph file
// and no partitioner spec — those belong to the shards. At connect
// time each shard ships its boundary summary (its boundary vertices,
// first-boundary skeleton edges, and cross-partition edges) and the
// coordinator stitches them into the global boundary graph; shard
// identity comes from the handshake, and a fleet whose shards disagree
// with each other (different graphs or partitionings) is refused with
// exit status 3. Passing -graph, -k, or -partitioner together with
// -shards is an error (exit status 2). -connect-timeout bounds the
// whole connect phase; summary-fetch progress is logged to stderr.
//
// Replication: each comma-separated -shards entry may be a '|' group
// of interchangeable replica servers for that partition
// ("a:7000|b:7000,c:7001|d:7001"). The coordinator load-balances
// across replicas, retries mid-query failures on a sibling, and
// reconnects dead replicas in the background. If every replica of a
// partition is down, only the queries that needed that partition fail:
// they print "error" in place of an answer (the outage is detailed
// once per partition on stderr), the rest of the stream keeps being
// answered, and the exit code turns non-zero.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dsr/internal/cli"
	"dsr/internal/dsr"
	"dsr/internal/graph"
	"dsr/internal/partition/locality"
	"dsr/internal/shard"
)

func main() {
	app := cli.NewCoordinator("dsr-query",
		"comma-separated shard addresses (shard i at position i), each optionally a 'a|b' replica group; empty runs in-process",
		"with -shards: time limit for dialing the fleet and fetching boundary summaries")
	var (
		graphPath   = flag.String("graph", "", "edge-list file for in-process mode: one 'u v' pair per line (forbidden with -shards)")
		k           = flag.Int("k", 4, "partition count for in-process mode (forbidden with -shards)")
		batch       = flag.Bool("batch", false, "read all queries first and answer them as one batch")
		partitioner = flag.String("partitioner", "hash", "in-process partitioning strategy: hash, range, or locality[:seed=N,rounds=N,balance=F,refine=N] (forbidden with -shards)")
	)
	flag.Parse()
	app.Start()
	distributed := *app.Shards != ""
	if distributed {
		// Graph-free mode: the coordinator learns the deployment from the
		// fleet itself. Flags that describe the graph belong to the
		// shards; accepting them here would suggest they have an effect.
		var rejected []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "graph", "partitioner", "k":
				rejected = append(rejected, "-"+f.Name)
			}
		})
		if len(rejected) > 0 {
			app.Usagef("%s cannot be combined with -shards: the coordinator is graph-free and learns the deployment from the shard fleet",
				strings.Join(rejected, ", "))
		}
	} else if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "dsr-query: -graph is required (in-process mode) or -shards (distributed mode)")
		flag.Usage()
		os.Exit(cli.ExitUsage)
	} else if *k < 1 {
		app.Usagef("-k must be >= 1, got %d", *k)
	}
	strat, err := locality.ParseSpec(*partitioner)
	if err != nil {
		app.Usagef("-partitioner: %v", err)
	}
	app.StartOps()

	var eng *dsr.Engine
	if distributed {
		eng = app.Connect(shard.HedgeOptions{})
	} else {
		g, err := graph.LoadEdgeListFile(*graphPath)
		if err != nil {
			app.Fatalf("load graph: %v", err)
		}
		eng, err = dsr.Build(g, dsr.Options{
			K: *k, Partitioner: strat,
			Metrics: app.Reg, Log: app.Log, SlowQuery: *app.SlowQuery,
		})
		if err != nil {
			app.Fatalf("build engine: %v", err)
		}
		app.Log.Infof("in-process engine: %d %s-partitioned partitions, %d boundary vertices",
			eng.NumPartitions(), strat.Name(), eng.NumBoundary())
	}
	// Interactive distributed sessions report what the failover
	// machinery did on the way out — invisible otherwise, since retried
	// queries still answer normally. runQueries prints it on every
	// ending, including error ones, where it matters most.
	var healthLog func(string, ...any)
	if distributed && !*batch {
		healthLog = app.Log.Infof
	}
	code := runQueries(eng, os.Stdin, os.Stdout, os.Stderr, *batch, healthLog)
	eng.Close()
	app.Exit(code)
}

// engine is the slice of dsr.Engine a query session needs, narrowed
// so session tests can substitute a fake that fails on demand.
type engine interface {
	QueryBatchErr([]dsr.Query) ([]bool, error)
	Health() []shard.PartitionHealth
}

// runQueries drives one query session: reads queries from in, writes
// answers to out and per-line problems to errw, and returns the process
// exit code — 0 only if every line parsed and every query was answered.
// Malformed lines are skipped (with a per-line error naming the line
// number), not fatal: the remaining well-formed queries still get
// answers, but the exit code turns non-zero so callers can't mistake a
// partially-processed workload for a clean run. Partial shard outages
// degrade the same way: queries that needed an unavailable partition
// print "error" (positions stay aligned with the input), everything
// else is still answered, and the exit code turns non-zero.
//
// A non-nil healthLog gets one replica-health summary line per
// partition when the session ends — on every ending, error ones
// included: a session that dies on a failed query is exactly the one
// whose retry/failover history the operator needs to see.
func runQueries(eng engine, in io.Reader, out, errw io.Writer, batch bool, healthLog func(string, ...any)) int {
	if healthLog != nil {
		defer func() {
			for _, ph := range eng.Health() {
				healthLog("partition %d: %d/%d replicas live, retries=%d failovers=%d redials=%d",
					ph.Partition, ph.Live, ph.Replicas, ph.Retries, ph.Failovers, ph.Redials)
			}
		}()
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	w := bufio.NewWriter(out)
	defer w.Flush()

	failedQueries := 0
	// emit answers one batch of queries, printing "error" in place of
	// answers a partition outage invalidated. It reports false only on
	// unrecoverable errors (protocol violation, closed transport).
	emit := func(qs []dsr.Query) bool {
		answers, err := eng.QueryBatchErr(qs)
		var be *dsr.BatchError
		if err != nil && !errors.As(err, &be) {
			fmt.Fprintf(errw, "dsr-query: query failed: %v\n", err)
			return false
		}
		if be != nil {
			for _, pe := range be.Partitions {
				fmt.Fprintf(errw, "dsr-query: partition %d unavailable: %v\n", pe.Partition, pe.Err)
			}
		}
		for i := range answers {
			if be != nil && be.Failed[i] {
				failedQueries++
				fmt.Fprintln(w, "error")
			} else {
				fmt.Fprintln(w, answers[i])
			}
		}
		return true
	}

	var queries []dsr.Query
	lineno, badLines := 0, 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := dsr.ParseQuery(line)
		if err != nil {
			fmt.Fprintf(errw, "dsr-query: line %d: %v\n", lineno, err)
			badLines++
			continue
		}
		if batch {
			queries = append(queries, q)
			continue
		}
		if !emit([]dsr.Query{q}) {
			return cli.ExitFailure
		}
		// Interactive mode answers as it goes: flush per line so a piped
		// driver sees each answer before sending the next query.
		w.Flush()
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(errw, "dsr-query: read input: %v\n", err)
		return cli.ExitFailure
	}
	if batch && len(queries) > 0 && !emit(queries) {
		return cli.ExitFailure
	}
	if badLines > 0 {
		fmt.Fprintf(errw, "dsr-query: %d malformed line(s) skipped\n", badLines)
	}
	if failedQueries > 0 {
		fmt.Fprintf(errw, "dsr-query: %d query(ies) failed on unavailable partitions\n", failedQueries)
	}
	if badLines > 0 || failedQueries > 0 {
		return cli.ExitFailure
	}
	return cli.ExitOK
}
