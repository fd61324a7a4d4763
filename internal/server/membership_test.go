package server_test

// Membership end-to-end tests: real dxserver members on loopback
// listeners growing and shrinking while clients keep hammering them. The
// properties under test are the ISSUE's acceptance bars — a node joins a
// loaded cluster and only the scenarios whose ring owner changed move,
// every request issued during the transition window succeeds, a drained
// member hands off everything it owns, a dead owner surfaces as a 502
// without leaking goroutines, and the aggregated listing degrades to an
// explicit partial answer instead of an error.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
)

// registerN registers n distinct scenarios through rotating entries and
// returns their ids.
func registerN(t *testing.T, nodes []member, n int) []string {
	t.Helper()
	ctx := context.Background()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("M(a%d,b%d). N(a%d,b%d). N(a%d,c%d).", i, i, i, i, i, i)
		info, err := nodes[i%len(nodes)].cli.Register(ctx, api.RegisterRequest{
			Name: fmt.Sprintf("mem%02d", i), Setting: quickstartSetting, Source: src,
		})
		if err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		ids = append(ids, info.ID)
	}
	return ids
}

// movedBetween returns the ids whose ring owner differs between the two
// peer lists — the exact set a transition must transfer.
func movedBetween(ids, oldPeers, newPeers []string) []string {
	oldRing := cluster.NewRing(oldPeers, 0)
	newRing := cluster.NewRing(newPeers, 0)
	var moved []string
	for _, id := range ids {
		if oldRing.Owner(id) != newRing.Owner(id) {
			moved = append(moved, id)
		}
	}
	return moved
}

// runLoad keeps two readers and one unconditional writer busy, each
// rotating through every entry, with a read-your-writes check through a
// different entry after each write. The returned stop halts the load and
// reports the first failed request; acked records each scenario's latest
// acknowledged version.
func runLoad(entries []member, ids []string, acked *sync.Map) (stop func() error) {
	var (
		loadErr error
		errOnce sync.Once
		done    = make(chan struct{})
		wg      sync.WaitGroup
		fail    = func(err error) { errOnce.Do(func() { loadErr = err }) }
		ctx     = context.Background()
	)
	wg.Add(3)
	for r := 0; r < 2; r++ {
		go func(seed int) {
			defer wg.Done()
			for i := seed; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				id := ids[i%len(ids)]
				entry := entries[i%len(entries)]
				if _, err := entry.cli.Scenario(ctx, id); err != nil {
					fail(fmt.Errorf("read %s via %s: %w", id, entry.url, err))
					return
				}
			}
		}(r)
	}
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			id := ids[i%len(ids)]
			entry := entries[(i+1)%len(entries)]
			res, err := entry.cli.Insert(ctx, id, api.MutateRequest{
				Tuples: fmt.Sprintf("M(w%d,w%d).", i, i+1),
			})
			if err != nil {
				fail(fmt.Errorf("write %d to %s via %s: %w", i, id, entry.url, err))
				return
			}
			// Read-your-writes through a different entry, immediately —
			// including while the scenario is mid-handoff.
			got, err := entries[(i+2)%len(entries)].cli.Scenario(ctx, id)
			if err != nil {
				fail(fmt.Errorf("read-after-write %s: %w", id, err))
				return
			}
			if got.Version < res.Version {
				fail(fmt.Errorf("read-your-writes violated on %s: wrote %d, read %d", id, res.Version, got.Version))
				return
			}
			acked.Store(id, res.Version)
		}
	}()
	return func() error {
		close(done)
		wg.Wait()
		return loadErr
	}
}

// TestMembershipJoinUnderLoad is the acceptance experiment: a fourth node
// joins a loaded three-node cluster while readers and a writer keep
// issuing requests through every entry. Zero requests may fail, only the
// scenarios whose owner changed may transfer, and a write acknowledged
// during the window must be readable through any entry afterwards.
func TestMembershipJoinUnderLoad(t *testing.T) {
	nodes, _ := startCluster(t, 3, false, server.Config{})
	ids := registerN(t, nodes, 32)
	oldPeers := []string{nodes[0].url, nodes[1].url, nodes[2].url}

	// Background load through every static entry: the transition window
	// must be invisible to clients.
	var versions sync.Map // id -> latest acked version
	stopLoad := runLoad(nodes, ids, &versions)
	// Let the load warm up before the topology changes under it.
	time.Sleep(50 * time.Millisecond)

	// Boot the fourth node joining: empty epoch-0 ring, then the live
	// handoff against the seed.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + l.Addr().String()
	jc, err := cluster.NewJoining(self, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	joiner := member{url: self, srv: server.New(server.Config{Cluster: jc}), cli: client.New(self)}
	hs := &http.Server{Handler: joiner.srv}
	go hs.Serve(l)
	t.Cleanup(func() { hs.Close() })

	before := metrics.Read()
	joinCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := joiner.srv.JoinCluster(joinCtx, nodes[0].url); err != nil {
		t.Fatalf("join: %v", err)
	}

	// Keep the load running a moment past the commit, then stop and check
	// nothing ever failed.
	time.Sleep(50 * time.Millisecond)
	if err := stopLoad(); err != nil {
		t.Fatalf("request failed during the membership transition: %v", err)
	}

	// Every member — the joiner included — reports the committed epoch 2
	// with no transition or in-flight transfers left.
	all := append(append([]member(nil), nodes...), joiner)
	for i, m := range all {
		h, err := m.cli.Health(context.Background())
		if err != nil {
			t.Fatalf("health via %d: %v", i, err)
		}
		if h.Cluster == nil || h.Cluster.Epoch != 2 {
			t.Fatalf("member %d: cluster health %+v, want epoch 2", i, h.Cluster)
		}
		if h.Cluster.Transition != "" && h.Cluster.Transition != "stable" {
			t.Fatalf("member %d still reports transition %q", i, h.Cluster.Transition)
		}
		if h.Cluster.TransfersInFlight != 0 {
			t.Fatalf("member %d reports %d transfers in flight after commit", i, h.Cluster.TransfersInFlight)
		}
	}

	// Exactly the scenarios whose owner changed moved: consistent hashing
	// puts that around 1/(n+1) of the keys, and certainly at most half.
	newPeers := append(append([]string(nil), oldPeers...), self)
	wantMoved := movedBetween(ids, oldPeers, newPeers)
	d := metrics.Read().Diff(before)
	if got := d["membership_transfers"]; got != int64(len(wantMoved)) {
		t.Fatalf("membership_transfers advanced by %d, want exactly the %d moved scenarios", got, len(wantMoved))
	}
	if len(wantMoved) == 0 || len(wantMoved) > len(ids)/2 {
		t.Fatalf("degenerate ring split: %d/%d scenarios moved", len(wantMoved), len(ids))
	}
	if d["membership_joins"] == 0 {
		t.Fatalf("membership_joins did not advance: %v", d)
	}
	if d["membership_transfer_bytes"] == 0 {
		t.Fatalf("membership_transfer_bytes did not advance: %v", d)
	}

	// Read-your-writes across the window: the last acked version of every
	// scenario is visible through all four entries, including the joiner.
	for _, id := range ids {
		var want uint64
		if v, ok := versions.Load(id); ok {
			want = v.(uint64)
		}
		for i, m := range all {
			got, err := m.cli.Scenario(context.Background(), id)
			if err != nil {
				t.Fatalf("post-join read of %s via %d: %v", id, i, err)
			}
			if got.Version < want {
				t.Fatalf("entry %d lost writes on %s: acked %d, reads %d", i, id, want, got.Version)
			}
		}
	}
}

// TestMembershipDrainLeave drains one member out of a loaded three-node
// cluster and checks no request failed, it handed off every scenario it
// owned, the survivors answer
// for everything, and even the departed process still routes requests to
// the new owners.
func TestMembershipDrainLeave(t *testing.T) {
	nodes, _ := startCluster(t, 3, false, server.Config{})
	ids := registerN(t, nodes, 24)
	oldPeers := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	leaver := nodes[2]
	rest := []string{nodes[0].url, nodes[1].url}

	owned := movedBetween(ids, oldPeers, rest)
	for _, id := range owned {
		if cluster.NewRing(oldPeers, 0).Owner(id) != leaver.url {
			t.Fatalf("moved scenario %s was not owned by the leaver", id)
		}
	}

	// The leave runs under load through every entry, the leaver included.
	var versions sync.Map
	stopLoad := runLoad(nodes, ids, &versions)
	time.Sleep(50 * time.Millisecond)

	before := metrics.Read()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := leaver.srv.LeaveCluster(ctx); err != nil {
		t.Fatalf("leave: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := stopLoad(); err != nil {
		t.Fatalf("request failed during the drain-leave: %v", err)
	}

	d := metrics.Read().Diff(before)
	if got := d["membership_transfers"]; got != int64(len(owned)) {
		t.Fatalf("leave transferred %d scenarios, want all %d the leaver owned", got, len(owned))
	}

	// Every scenario answers through every process, with every write
	// acknowledged during the leave — the leaver forwards with its shrunken
	// committed ring rather than serving stale state.
	for _, id := range ids {
		var want uint64
		if v, ok := versions.Load(id); ok {
			want = v.(uint64)
		}
		for i, m := range nodes {
			got, err := m.cli.Scenario(context.Background(), id)
			if err != nil {
				t.Fatalf("post-leave read of %s via %d: %v", id, i, err)
			}
			if got.Version < want {
				t.Fatalf("entry %d lost writes on %s: acked %d, reads %d", i, id, want, got.Version)
			}
		}
	}
	h, err := nodes[0].cli.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Cluster.Epoch != 2 {
		t.Fatalf("survivor epoch = %d, want 2", h.Cluster.Epoch)
	}
}

// hmember is a cluster member whose http.Server handle the test keeps, so
// it can kill and resurrect the process's listener.
type hmember struct {
	url  string
	addr string
	srv  *server.Server
	cli  *client.Client
	hs   *http.Server
}

func startClusterHandles(t *testing.T, n int, base server.Config) []*hmember {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		peers[i] = "http://" + l.Addr().String()
	}
	members := make([]*hmember, n)
	for i, l := range listeners {
		cl, err := cluster.New(cluster.Config{Self: peers[i], Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Cluster = cl
		srv := server.New(cfg)
		hs := &http.Server{Handler: srv}
		go hs.Serve(l)
		m := &hmember{url: peers[i], addr: l.Addr().String(), srv: srv, cli: client.New(peers[i]), hs: hs}
		t.Cleanup(func() { m.hs.Close() })
		members[i] = m
	}
	return members
}

// revive rebinds the member's old address and serves the same server state
// again, as a crashed-and-restarted process would after recovery.
func (m *hmember) revive(t *testing.T) {
	t.Helper()
	var l net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if l, err = net.Listen("tcp", m.addr); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", m.addr, err)
	}
	m.hs = &http.Server{Handler: m.srv}
	go m.hs.Serve(l)
	t.Cleanup(func() { m.hs.Close() })
}

// TestClusterOwnerDeathMidForward kills a scenario's owner and checks a
// forwarded request fails fast with the peer_unavailable envelope, leaks
// no goroutines, and succeeds again once the owner is back.
func TestClusterOwnerDeathMidForward(t *testing.T) {
	members := startClusterHandles(t, 3, server.Config{})
	ctx := context.Background()

	info, err := members[0].cli.Register(ctx, api.RegisterRequest{
		Setting: quickstartSetting, Source: quickstartSource,
	})
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{members[0].url, members[1].url, members[2].url}
	owner := cluster.NewRing(peers, 0).Owner(info.ID)
	var ownerM, entry *hmember
	for _, m := range members {
		if m.url == owner {
			ownerM = m
		} else if entry == nil {
			entry = m
		}
	}

	// Warm the forward path so connection pools exist before the baseline.
	if _, err := entry.cli.Scenario(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ownerM.hs.Close()
	for i := 0; i < 3; i++ {
		_, err = entry.cli.Scenario(ctx, info.ID)
		wantAPIError(t, err, "peer_unavailable", http.StatusBadGateway)
	}

	// The failed forwards must not strand goroutines: the retry loop and
	// its transport conns wind down once the 502 is written.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+4 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+4 {
		t.Fatalf("goroutines leaked across dead-owner forwards: before=%d after=%d", before, g)
	}

	// Resurrect the owner on the same address: the very same request
	// recovers without any client-side reconfiguration.
	ownerM.revive(t)
	var got api.ScenarioInfo
	for i := 0; ; i++ {
		if got, err = entry.cli.Scenario(ctx, info.ID); err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("owner never recovered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got.ID != info.ID {
		t.Fatalf("recovered read returned %+v", got)
	}
}

// TestClusterPartialListing kills one member and checks the aggregated
// scenario listing through a live entry degrades gracefully: 200, the
// reachable scenarios merged, and the dead peer named in X-Dx-Partial.
func TestClusterPartialListing(t *testing.T) {
	members := startClusterHandles(t, 3, server.Config{})
	ctx := context.Background()

	// Register until at least two distinct members own a scenario.
	ownersSeen := map[string][]string{}
	peers := []string{members[0].url, members[1].url, members[2].url}
	ring := cluster.NewRing(peers, 0)
	for i := 0; len(ownersSeen) < 2 || i < 4; i++ {
		src := fmt.Sprintf("M(p%d,q%d). N(p%d,q%d). N(p%d,r%d).", i, i, i, i, i, i)
		info, err := members[0].cli.Register(ctx, api.RegisterRequest{
			Name: fmt.Sprintf("part%02d", i), Setting: quickstartSetting, Source: src,
		})
		if err != nil {
			t.Fatal(err)
		}
		o := ring.Owner(info.ID)
		ownersSeen[o] = append(ownersSeen[o], info.ID)
		if i > 64 {
			t.Fatal("could not scatter scenarios over two owners")
		}
	}

	// Kill some member that owns at least one scenario and is not the
	// entry we will list through.
	entry := members[0]
	var victim *hmember
	for _, m := range members[1:] {
		if len(ownersSeen[m.url]) > 0 {
			victim = m
			break
		}
	}
	if victim == nil {
		// Members 1 and 2 own nothing; the entry owns everything, so kill
		// member 1 anyway — the partial header must still name it.
		victim = members[1]
	}
	victim.hs.Close()

	code, hdr, body := rawDo(t, http.MethodGet, entry.url+"/v1/scenarios", "")
	if code != http.StatusOK {
		t.Fatalf("partial listing: status %d: %s", code, body)
	}
	partial := hdr.Get("X-Dx-Partial")
	if !strings.Contains(partial, victim.url) {
		t.Fatalf("X-Dx-Partial = %q, want it to name the dead peer %s", partial, victim.url)
	}
	// Every scenario owned by a live member is still in the merged body.
	for owner, ids := range ownersSeen {
		if owner == victim.url {
			continue
		}
		for _, id := range ids {
			if !strings.Contains(string(body), id) {
				t.Fatalf("live-owned scenario %s missing from partial listing: %s", id, body)
			}
		}
	}
	// A fully-live cluster must not set the header.
	victim.revive(t)
	waitReachable(t, victim.cli)
	code, hdr, body = rawDo(t, http.MethodGet, entry.url+"/v1/scenarios", "")
	if code != http.StatusOK || hdr.Get("X-Dx-Partial") != "" {
		t.Fatalf("recovered listing: status %d partial %q: %s", code, hdr.Get("X-Dx-Partial"), body)
	}
}

// TestMembershipAbortPreservesAcknowledgedWrites opens a join window by
// hand, lets the handoffs land, writes to a moved scenario (the write is
// forwarded to and acknowledged by the would-be new owner), then aborts
// the transition. The write must survive: the receiver pushes its live
// copy back to the committed owner instead of orphaning it, and the old
// owner must not resume serving its stale pre-handoff copy.
func TestMembershipAbortPreservesAcknowledgedWrites(t *testing.T) {
	nodes, _ := startCluster(t, 2, false, server.Config{})
	ids := registerN(t, nodes, 24)
	peers := []string{nodes[0].url, nodes[1].url}

	// Boot the joiner's process but drive the protocol by hand, so the
	// window stays open while the test writes into it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	jURL := "http://" + l.Addr().String()
	jc, err := cluster.NewJoining(jURL, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	joiner := member{url: jURL, srv: server.New(server.Config{Cluster: jc}), cli: client.New(jURL)}
	hs := &http.Server{Handler: joiner.srv}
	go hs.Serve(l)
	t.Cleanup(func() { hs.Close() })

	newPeers := append(append([]string(nil), peers...), jURL)
	moving := movedBetween(ids, peers, newPeers)
	if len(moving) == 0 {
		t.Fatal("no scenario moves to the joiner under the proposed ring")
	}
	target := moving[0]
	all := []string{nodes[0].url, nodes[1].url, jURL}

	before := metrics.Read()
	propose := fmt.Sprintf(
		`{"current":{"epoch":1,"members":[%q,%q]},"proposed":{"epoch":2,"members":[%q,%q,%q]},"coordinator":%q}`,
		peers[0], peers[1], peers[0], peers[1], jURL, nodes[0].url)
	for _, u := range all {
		if code, _, body := rawDo(t, http.MethodPost, u+"/v1/cluster/propose", propose); code != http.StatusOK {
			t.Fatalf("propose to %s: status %d: %s", u, code, body)
		}
	}
	// Wait until every moving scenario's handoff landed at the joiner.
	deadline := time.Now().Add(10 * time.Second)
	for metrics.Read().Diff(before)["membership_transfers"] < int64(len(moving)) {
		if time.Now().After(deadline) {
			t.Fatalf("handoffs never finished: %d of %d",
				metrics.Read().Diff(before)["membership_transfers"], len(moving))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The mid-window write: the old owner forwards it to the joiner, which
	// acknowledges it on the transferred copy.
	res, err := nodes[0].cli.Insert(context.Background(), target, api.MutateRequest{Tuples: "M(wa,wb)."})
	if err != nil {
		t.Fatalf("mid-window write: %v", err)
	}

	// Abort everywhere. The joiner now holds the only copy carrying the
	// acknowledged write; reconciliation must return it.
	for _, u := range all {
		if code, _, body := rawDo(t, http.MethodPost, u+"/v1/cluster/abort", `{"epoch":2}`); code != http.StatusOK {
			t.Fatalf("abort to %s: status %d: %s", u, code, body)
		}
	}

	// Until the push-back lands the old owner keeps forwarding; afterwards
	// it serves the returned copy. Either way the write stays readable.
	deadline = time.Now().Add(10 * time.Second)
	for {
		got, err := nodes[1].cli.Scenario(context.Background(), target)
		if err == nil && got.Version >= res.Version {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("acknowledged write lost to the abort: err=%v version=%d, want >= %d",
				err, got.Version, res.Version)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, m := range nodes {
		got, err := m.cli.Scenario(context.Background(), target)
		if err != nil {
			t.Fatalf("post-abort read via %d: %v", i, err)
		}
		if got.Version < res.Version {
			t.Fatalf("entry %d reads version %d after abort, want >= %d", i, got.Version, res.Version)
		}
	}
	// Everything else still answers on the old ring through both members.
	for _, id := range ids {
		for i, m := range nodes {
			if _, err := m.cli.Scenario(context.Background(), id); err != nil {
				t.Fatalf("post-abort read of %s via %d: %v", id, i, err)
			}
		}
	}
}

func waitReachable(t *testing.T, c *client.Client) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Health(context.Background()); err == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("revived member never became reachable")
}
