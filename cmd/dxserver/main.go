// Command dxserver runs the long-running data-exchange service: an
// HTTP/JSON API over registered scenarios (setting + source instance) with
// plan/result caching, per-request deadlines and budgets, and
// bounded-concurrency admission control. See internal/server for the
// architecture and README.md ("Running the server") for the endpoints.
//
// Usage:
//
//	dxserver [-addr :8080] [-max-concurrent N] [-queue-depth N]
//	         [-default-deadline 30s] [-max-deadline 5m] [-max-steps N]
//	         [-max-enum N] [-max-scenarios N] [-max-results N]
//	         [-drain-timeout 10s] [-pprof addr]
//	         [-data-dir DIR] [-fsync always|interval|off]
//	         [-fsync-interval 100ms] [-snapshot-interval 5m]
//	         [-cluster URL,URL,...] [-cluster-self URL]
//	         [-cluster-role auto|node|router]
//	         [-cluster-join URL] [-cluster-drain-leave]
//
// -cluster makes the process a member of a static sharded cluster: the
// comma-separated list names the data nodes, and scenarios are distributed
// across them by a consistent-hash ring keyed on scenario ID (internal/
// cluster). -cluster-self is this process's advertised base URL; when it
// appears in the peer list the process is a data node, otherwise a
// stateless router — override with -cluster-role to fail fast on
// misconfiguration. Every member serves the full API at any entry point:
// requests for scenarios owned elsewhere are forwarded to the owner (with
// retries, deadlines and a hop bound), forwarded read results are
// replicated locally behind ETag revalidation, and a mutation anywhere
// invalidates replicas everywhere by construction, because replicas
// revalidate against the owner's version-keyed tags. See README.md
// ("Running a cluster").
//
// -cluster-join grows a running cluster instead: the process boots with an
// empty ring, contacts the given seed member, and the cluster runs a live
// two-phase transition — the proposed ring is broadcast, exactly the
// scenarios whose owner changed stream to this node as DXB1 blocks while
// both rings route requests, and the new epoch commits once every transfer
// is acknowledged (internal/membership). It requires -cluster-self and is
// exclusive with -cluster. -cluster-drain-leave makes SIGINT/SIGTERM run
// the inverse transition before draining: every scenario this node owns is
// handed off to the surviving members, so a planned shrink loses nothing.
// Without it a killed node's scenarios are simply unreachable (502
// peer_unavailable) until the node returns. See README.md ("Growing and
// shrinking a cluster").
//
// -data-dir enables the durable scenario store (internal/store): every
// registration and mutation is journaled to a write-ahead log in DIR before
// it is acknowledged, snapshots compact the log every -snapshot-interval
// (0 disables the ticker), scenarios evicted from RAM page to disk, and a
// restart recovers the full catalog — resuming incremental engines from
// persisted chase fixpoints instead of re-chasing. -fsync picks the WAL
// durability mode: always (fsync per append; acknowledged writes survive
// power loss), interval (background fsync every -fsync-interval; bounded
// loss window), off (no explicit fsync; survives process kills, not power
// loss). Without -data-dir the server is memory-only, exactly as before.
//
// -pprof serves net/http/pprof profiling endpoints on a separate listener
// (e.g. -pprof localhost:6060 → /debug/pprof/). Off by default; bind it to
// loopback — the profile endpoints are unauthenticated.
//
// On SIGINT/SIGTERM the server stops admitting new work (503), drains
// in-flight requests for -drain-timeout, then aborts whatever is left via
// the evaluation contexts and exits.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -pprof listener's DefaultServeMux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrently evaluating requests (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "max requests waiting for a slot before 503 (0 = 4×max-concurrent)")
	defaultDeadline := flag.Duration("default-deadline", 30*time.Second, "deadline for requests without deadline_ms")
	maxDeadline := flag.Duration("max-deadline", 5*time.Minute, "cap on request deadlines")
	maxSteps := flag.Int("max-steps", 0, "default chase step budget (0 = library default)")
	maxEnum := flag.Int("max-enum", 0, "cap on /v1/enum solutions (0 = default 256)")
	maxScenarios := flag.Int("max-scenarios", 0, "resident scenario bound (0 = default 128)")
	maxResults := flag.Int("max-results", 0, "cached response bound (0 = default 4096)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled; keep it loopback)")
	dataDir := flag.String("data-dir", "", "durable store directory (empty = memory-only)")
	fsyncMode := flag.String("fsync", "always", "WAL sync mode: always, interval or off")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "background WAL fsync period under -fsync interval")
	snapshotInterval := flag.Duration("snapshot-interval", 5*time.Minute, "store snapshot/compaction period (0 = only at shutdown)")
	clusterPeers := flag.String("cluster", "", "comma-separated data-node base URLs; enables cluster mode")
	clusterSelf := flag.String("cluster-self", "", "this process's advertised base URL (required with -cluster)")
	clusterRole := flag.String("cluster-role", "auto", "cluster role: auto, node or router")
	clusterJoin := flag.String("cluster-join", "", "seed member URL: join its cluster live (requires -cluster-self, exclusive with -cluster)")
	clusterDrainLeave := flag.Bool("cluster-drain-leave", false, "hand owned scenarios off to the remaining members before shutting down")
	flag.Parse()

	// The profiler gets its own listener and the default mux (where the
	// net/http/pprof import registered itself), so the API handler never
	// exposes /debug/pprof/ and the profile port can stay loopback-only.
	if *pprofAddr != "" {
		go func() {
			log.Printf("dxserver: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("dxserver: pprof listener: %v", err)
			}
		}()
	}

	// Parse the enumerated flags even when the mode that uses them is off,
	// so a typo fails at boot instead of being ignored.
	role, err := cluster.ParseRole(*clusterRole)
	if err != nil {
		log.Fatalf("dxserver: %v", err)
	}
	syncMode, err := store.ParseSyncMode(*fsyncMode)
	if err != nil {
		log.Fatalf("dxserver: %v", err)
	}

	cfg := server.Config{
		MaxConcurrent:    *maxConcurrent,
		QueueDepth:       *queueDepth,
		DefaultDeadline:  *defaultDeadline,
		MaxDeadline:      *maxDeadline,
		DefaultMaxSteps:  *maxSteps,
		MaxEnumSolutions: *maxEnum,
		MaxScenarios:     *maxScenarios,
		MaxResults:       *maxResults,
	}

	if *clusterJoin != "" {
		if *clusterPeers != "" {
			log.Fatalf("dxserver: -cluster-join is exclusive with -cluster: a joiner learns the member list from the seed")
		}
		if *clusterSelf == "" {
			log.Fatalf("dxserver: -cluster-join requires -cluster-self (the URL peers reach this process at)")
		}
		cl, err := cluster.NewJoining(*clusterSelf, 0, 0)
		if err != nil {
			log.Fatalf("dxserver: %v", err)
		}
		log.Printf("dxserver: joining cluster via %s as %s", *clusterJoin, cl.Self())
		cfg.Cluster = cl
	}

	if *clusterPeers != "" {
		cl, err := cluster.New(cluster.Config{
			Self:  *clusterSelf,
			Peers: strings.Split(*clusterPeers, ","),
			Role:  role,
		})
		if err != nil {
			log.Fatalf("dxserver: %v", err)
		}
		log.Printf("dxserver: cluster %s %s, ring %s over %d nodes",
			cl.Role(), cl.Self(), cl.RingVersion(), len(cl.Peers()))
		cfg.Cluster = cl
	} else if *clusterSelf != "" && *clusterJoin == "" {
		log.Fatalf("dxserver: -cluster-self requires -cluster or -cluster-join")
	}

	if *dataDir != "" {
		st, err := store.Open(*dataDir, store.Options{Fsync: syncMode, FsyncInterval: *fsyncInterval})
		if err != nil {
			log.Fatalf("dxserver: opening store: %v", err)
		}
		stats := st.Stats()
		log.Printf("dxserver: store %s: %d scenarios, %d WAL records replayed",
			*dataDir, stats.Scenarios, stats.Replayed)
		cfg.Store = st
	}

	srv := server.New(cfg)
	hs := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("dxserver: listening on %s", *addr)

	if *clusterJoin != "" {
		// The seed proposes the new ring back to this process over HTTP, so
		// the local listener must answer before the join protocol starts.
		joinCtx, cancelJoin := context.WithTimeout(context.Background(), 2*time.Minute)
		self := client.New(cfg.Cluster.Self())
		for {
			if _, err := self.Health(joinCtx); err == nil {
				break
			}
			select {
			case <-joinCtx.Done():
				log.Fatalf("dxserver: own listener never became reachable at %s — is -cluster-self the URL peers see?", cfg.Cluster.Self())
			case <-time.After(50 * time.Millisecond):
			}
		}
		if err := srv.JoinCluster(joinCtx, *clusterJoin); err != nil {
			log.Fatalf("dxserver: joining via %s: %v", *clusterJoin, err)
		}
		cancelJoin()
		cur := cfg.Cluster.Current()
		log.Printf("dxserver: joined: epoch %d, %d members", cur.Epoch, len(cur.Members))
	}

	// Periodic snapshots bound both recovery time and WAL disk usage; the
	// final snapshot at drain below makes clean restarts replay nothing.
	snapStop := make(chan struct{})
	if cfg.Store != nil && *snapshotInterval > 0 {
		go func() {
			t := time.NewTicker(*snapshotInterval)
			defer t.Stop()
			for {
				select {
				case <-snapStop:
					return
				case <-t.C:
					if err := srv.SnapshotNow(); err != nil {
						log.Printf("dxserver: snapshot: %v", err)
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("dxserver: %v", err)
	case s := <-sig:
		log.Printf("dxserver: %v: draining (max %v)", s, *drainTimeout)
	}

	// A planned shrink hands every owned scenario off to the surviving
	// members before the drain, so nothing becomes unreachable. This runs
	// while the listener still serves: the handoff needs the data plane.
	if *clusterDrainLeave && cfg.Cluster != nil {
		leaveCtx, cancelLeave := context.WithTimeout(context.Background(), time.Minute)
		if err := srv.LeaveCluster(leaveCtx); err != nil {
			log.Printf("dxserver: drain-leave failed (scenarios stay here): %v", err)
		} else {
			log.Printf("dxserver: left the cluster: owned scenarios handed off")
		}
		cancelLeave()
	}

	// Graceful shutdown: refuse new evaluations, give in-flight work the
	// drain window, then abort stragglers through their contexts so
	// Shutdown can complete.
	srv.BeginDrain()
	close(snapStop)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- hs.Shutdown(ctx) }()
	select {
	case err := <-shutdownDone:
		if err != nil {
			log.Printf("dxserver: shutdown: %v", err)
		}
	case <-ctx.Done():
		log.Printf("dxserver: drain window expired, aborting in-flight work")
		srv.Abort()
		if err := <-shutdownDone; err != nil {
			log.Printf("dxserver: shutdown after abort: %v", err)
		}
	}
	// The store is finalized after the HTTP server has drained: a last
	// snapshot captures every resident fixpoint, so the next boot recovers
	// from the snapshot alone and replays zero WAL records.
	if cfg.Store != nil {
		if err := srv.CloseStore(); err != nil {
			log.Printf("dxserver: closing store: %v", err)
		}
	}
	log.Printf("dxserver: bye")
}
