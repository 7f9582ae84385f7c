// Command acdserve exposes the sharded incremental dedup engine over
// HTTP: a long-running service that accepts records as they arrive,
// caches crowd answers, and folds pending work into the live clustering
// on demand. Records are partitioned across -shards engines by blocking
// token, so ingest on different shards never contends; a global resolve
// pass keeps the clustering — and every crowd question — identical to a
// single engine's. With -journal DIR the state is durable: every
// record, answer, and resolve effect is written ahead to per-shard WALs
// (plus a router WAL for cross-shard state) with periodic compacted
// checkpoints, and a restarted server recovers the exact clustering it
// had before the crash. The acknowledgment is the unit of durability:
// each journal a request touches is fsynced once for that request, and
// a resolve commits each crowd iteration's answers once per journal.
// With -commit-window the per-shard WALs additionally hold a commit
// group open so that concurrent requests share a single fsync;
// acknowledgments are pipelined either way, and the committed-prefix
// contract stands — an id is reported only once its event's group is
// durable.
//
// The engine, handlers, and HTTP API live in internal/serve (so the
// acdload scenario suite can embed the same server in-process); this
// command adds flags, the listener, and the graceful-shutdown
// lifecycle. The API and operations are documented in docs/serving.md.
//
// Usage:
//
//	acdserve [-addr 127.0.0.1:8080] [-journal DIR] [-shards N] [-tau 0.3]
//	         [-eps 0.1] [-x 8] [-seed 1] [-checkpoint-every N]
//	         [-commit-window D] [-commit-events N] [-commit-bytes N]
//	         [-rotate-bytes N] [-follow URL] [-replica-id NAME]
//	         [-fleet SPEC] [-fleet-budget CENTS]
//	         [-metrics] [-metrics-json] [-trace FILE] [-metrics-http ADDR]
//
// Endpoints:
//
//	POST /records  {"records":[{"fields":{...},"entity":"l"}]} -> {"ids":[...]}
//	POST /answers  {"answers":[{"lo":0,"hi":1,"fc":0.9,"source":"s"}]} -> {"accepted":n}
//	POST /resolve  -> incremental.ResolveStats (runs one resolve pass)
//	GET  /clusters -> {"round":r,"resolved_up_to":n,"clusters":[[...]]}
//	GET  /healthz  -> {"status":"ok","records":n,"round":r}
//	GET  /metrics  -> observability snapshot (JSON)
//	GET  /replica/stream   -> journal tail batches for followers (long-poll)
//	GET  /replica/status   -> replication role, epoch, and lag
//	POST /replica/promote  -> turn this follower into the leader
//
// GET /clusters and GET /healthz are served from an immutable snapshot
// behind an atomic pointer: reads never take a write lock and return
// immediately even while a resolve pass or an ingest burst is running.
// With -follow the server is a read-only replica instead: it mirrors
// the leader's journals, answers reads from a warm standby with an
// X-Replication-Lag header, refuses writes with 503, and becomes the
// leader on POST /replica/promote (fencing the deposed leader's epoch
// and replaying its surviving tail when the body names its journal
// directory). See docs/serving.md for the replication runbook.
// Crowd answers are optional: /resolve primes every cached answer and
// falls back to machine similarity scores for residual pairs, so the
// service is useful standalone and gets strictly better as answers
// stream in. With -fleet the residual questions instead route through
// the heterogeneous crowd marketplace (internal/market): each backend in
// the spec answers from the same deterministic pseudo-crowd with its own
// price, latency, and calibrated noise, and the router buys each answer
// from whichever backend offers the best information value per cent
// under the -fleet-budget cap; per-backend spend and accuracy appear
// under market/* and crowd/backend/* in GET /metrics. A one-backend
// fleet with fault options is a simulated slow, faulty crowd with real
// injected latency — the degraded-crowd configuration the load
// scenarios exercise:
//
//	-fleet 'sim:2:20:0:lat=500us:spike=0.05:drop=0.05:fault=0.05:timeout=10ms'
//
// On SIGINT/SIGTERM the server drains in-flight requests, writes a
// final checkpoint, and closes the journals.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"acd/internal/core"
	"acd/internal/obs"
	"acd/internal/pruning"
	"acd/internal/refine"
	"acd/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main's testable seam: it parses args, builds the server core
// (recovering from the journal when one is configured), serves HTTP
// until ctx is cancelled, then shuts down gracefully. When ready is
// non-nil the bound listen address is sent on it once the server
// accepts connections — tests pass -addr 127.0.0.1:0 and read the
// real port from here.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("acdserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
	dir := fs.String("journal", "", "journal directory for durable state (empty = volatile, in-memory only)")
	shards := fs.Int("shards", 0, "shard count for the online engine (0 = what the journal has, or 1; an existing journal pins its count)")
	tau := fs.Float64("tau", pruning.DefaultTau, "candidate threshold for the incremental blocking index")
	eps := fs.Float64("eps", core.DefaultEpsilon, "PC-Pivot wasted-pair budget")
	x := fs.Int("x", refine.DefaultX, "refinement budget divisor (T = N_m/x)")
	seed := fs.Int64("seed", 1, "random seed for resolve permutations")
	ckpt := fs.Int("checkpoint-every", 256, "journal events between automatic checkpoints (0 disables)")
	commitWindow := fs.Duration("commit-window", 0, "journal group-commit window: 0 = one commit per request per journal; D > 0 additionally holds the group open up to D for concurrent requests")
	commitEvents := fs.Int("commit-events", 0, "max events per commit group before an early fsync (0 = 256)")
	commitBytes := fs.Int64("commit-bytes", 0, "max WAL bytes per commit group before an early fsync (0 = 1 MiB)")
	rotateBytes := fs.Int64("rotate-bytes", serve.DefaultRotateBytes, "rotate each live WAL segment past this size in bytes (0 disables rotation)")
	follow := fs.String("follow", "", "leader replication stream URL (http://LEADER/replica/stream): start as a read-only follower mirroring that leader's journals")
	replicaID := fs.String("replica-id", "", "replica name reported by GET /replica/status")
	fleet := fs.String("fleet", "", "marketplace fleet spec (\"default\" = the built-in mixed fleet): route residual resolve questions across simulated crowd backends by information value per cent; spike=/drop=/fault= backend options inject real latency and faults")
	fleetBudget := fs.Int("fleet-budget", 0, "with -fleet: total marketplace spend cap in cents (0 = unlimited)")
	obsFlags := obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rec := obs.New()
	if obsFlags.Enabled() {
		if err := obsFlags.Activate(rec, stderr); err != nil {
			fmt.Fprintf(stderr, "acdserve: %v\n", err)
			return 2
		}
		rec.PublishExpvar("acdserve")
		defer obsFlags.Finish(stderr)
	}

	cfg := serve.Config{
		Journal: *dir,
		Shards:  *shards,
		Tau:     *tau, TauSet: true,
		Epsilon: *eps, RefineX: *x,
		Seed:            *seed,
		CheckpointEvery: *ckpt,
		CommitWindow:    *commitWindow,
		CommitEvents:    *commitEvents,
		CommitBytes:     *commitBytes,
		RotateBytes:     *rotateBytes,
		Obs:             rec,
		Follow:          *follow,
		ReplicaID:       *replicaID,
		Fleet:           *fleet,
		FleetBudget:     *fleetBudget,
	}
	srv, err := serve.Open(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "acdserve: %v\n", err)
		return 1
	}
	if *follow != "" {
		fmt.Fprintf(stderr, "acdserve: following %s (%d shards): standby at %d records, round %d\n",
			*follow, srv.Shards(), srv.Recovered.Records, srv.Recovered.Round)
	} else if srv.Recovered.FromJournal {
		fmt.Fprintf(stderr, "acdserve: journal %s (%d shards): recovered %d records, round %d\n",
			*dir, srv.Shards(), srv.Recovered.Records, srv.Recovered.Round)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "acdserve: %v\n", err)
		srv.Close()
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stderr, "acdserve: listening on http://%s (%d shards)\n", ln.Addr(), srv.Shards())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	status := 0
	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "acdserve: %v\n", err)
		status = 1
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(stderr, "acdserve: shutdown: %v\n", err)
			status = 1
		}
		cancel()
		<-serveErr // Serve has returned http.ErrServerClosed
	}

	// Drained: checkpoint every journal so the next start replays a
	// compact prefix, then release them.
	if err := srv.Checkpoint(); err != nil {
		fmt.Fprintf(stderr, "acdserve: final checkpoint: %v\n", err)
		status = 1
	}
	final := srv.Snapshot()
	if err := srv.Close(); err != nil {
		fmt.Fprintf(stderr, "acdserve: closing journal: %v\n", err)
		status = 1
	}
	fmt.Fprintf(stdout, "acdserve: stopped after %d records, round %d\n", final.Records, final.Round)
	return status
}
