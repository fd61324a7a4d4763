package server_test

// Cluster end-to-end tests: several real dxserver members on loopback
// listeners, every request entering through different members. The
// properties under test are exactly the ones the routing layer promises —
// answers are byte-identical regardless of entry point, optimistic
// concurrency 409s through any entry, replicated caches revalidate instead
// of serving stale bodies, and disagreeing rings die with 508 instead of
// looping.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
)

type member struct {
	url string
	srv *server.Server
	cli *client.Client
}

// startCluster boots n data nodes (plus optionally one router) sharing a
// peer list, each serving on its own loopback listener.
func startCluster(t *testing.T, n int, withRouter bool, base server.Config) (nodes []member, router *member) {
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
	start := func(l net.Listener, self string) member {
		cl, err := cluster.New(cluster.Config{Self: self, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Cluster = cl
		srv := server.New(cfg)
		hs := &http.Server{Handler: srv}
		go hs.Serve(l)
		t.Cleanup(func() { hs.Close() })
		return member{url: self, srv: srv, cli: client.New(self)}
	}
	for i, l := range listeners {
		nodes = append(nodes, start(l, peers[i]))
	}
	if withRouter {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m := start(l, "http://"+l.Addr().String())
		router = &m
	}
	return nodes, router
}

// rawDo sends a request and returns status, headers and the full body.
func rawDo(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// ownerOf recomputes a key's owner from the peer list — the ring is pure
// computation, so the test can predict placement without asking anyone.
func ownerOf(t *testing.T, nodes []member, key string) int {
	t.Helper()
	peers := make([]string, len(nodes))
	for i, n := range nodes {
		peers[i] = n.url
	}
	owner := cluster.NewRing(peers, 0).Owner(key)
	for i, n := range nodes {
		if n.url == owner {
			return i
		}
	}
	t.Fatalf("owner %s not among members", owner)
	return -1
}

func TestClusterByteIdenticalThroughEveryEntry(t *testing.T) {
	nodes, router := startCluster(t, 3, true, server.Config{})
	ctx := context.Background()

	// Register through the router; the auto name becomes content-pinned.
	info, err := router.cli.Register(ctx, api.RegisterRequest{
		Setting: quickstartSetting, Source: quickstartSource,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.ID, "c") {
		t.Fatalf("cluster registration got name %q, want content-pinned c<hash>", info.ID)
	}
	// Re-registering the identical content through a different entry lands
	// on the same owner and dedupes there.
	again, err := nodes[1].cli.Register(ctx, api.RegisterRequest{
		Setting: quickstartSetting, Source: quickstartSource,
	})
	if err != nil || !again.Existing || again.ID != info.ID {
		t.Fatalf("re-register through node1 = %+v, %v; want existing %s", again, err, info.ID)
	}

	entries := append([]member{*router}, nodes...)
	evalBody := fmt.Sprintf(`{"scenario":%q}`, info.ID)
	for _, path := range []string{"/v1/chase", "/v1/core", "/v1/cansol", "/v1/certain", "/v1/enum"} {
		body := evalBody
		if path == "/v1/certain" {
			body = fmt.Sprintf(`{"scenario":%q,"query":"q(x) :- E(x,y)."}`, info.ID)
		}
		var first []byte
		for i, e := range entries {
			code, _, got := rawDo(t, http.MethodPost, e.url+path, body)
			if code != http.StatusOK {
				t.Fatalf("%s via entry %d: status %d: %s", path, i, code, got)
			}
			if i == 0 {
				first = got
			} else if !bytes.Equal(got, first) {
				t.Fatalf("%s differs between entries:\n%s\nvs\n%s", path, first, got)
			}
		}
	}

	// The aggregated listing shows the scenario from every entry.
	for i, e := range entries {
		list, err := e.cli.Scenarios(ctx)
		if err != nil {
			t.Fatalf("list via entry %d: %v", i, err)
		}
		found := false
		for _, sc := range list.Scenarios {
			if sc.ID == info.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("entry %d listing misses %s: %+v", i, info.ID, list)
		}
	}
}

func TestClusterConflictThroughAnyEntry(t *testing.T) {
	nodes, _ := startCluster(t, 3, false, server.Config{})
	ctx := context.Background()

	info, err := nodes[0].cli.Register(ctx, api.RegisterRequest{
		Setting: quickstartSetting, Source: quickstartSource,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A conditional mutation through one non-owner entry succeeds...
	res, err := nodes[1].cli.Insert(ctx, info.ID, api.MutateRequest{
		Tuples: "M(c,d).", BaseVersion: info.Version,
	})
	if err != nil {
		t.Fatalf("mutation via node1: %v", err)
	}
	if res.Version == info.Version {
		t.Fatalf("version did not advance: %+v", res)
	}
	// ...and replaying the same stale base through every other entry 409s
	// identically, because the owner's version check is the only one there
	// is.
	for i := range nodes {
		_, err := nodes[i].cli.Insert(ctx, info.ID, api.MutateRequest{
			Tuples: "M(e,f).", BaseVersion: info.Version,
		})
		wantAPIError(t, err, "conflict", http.StatusConflict)
	}
	// The fresh version works again, through yet another entry.
	if _, err := nodes[2].cli.Insert(ctx, info.ID, api.MutateRequest{
		Tuples: "M(e,f).", BaseVersion: res.Version,
	}); err != nil {
		t.Fatalf("mutation at fresh version: %v", err)
	}
	// Every entry reads the same post-mutation state.
	var first []byte
	for i, n := range nodes {
		code, _, got := rawDo(t, http.MethodPost, n.url+"/v1/chase", fmt.Sprintf(`{"scenario":%q}`, info.ID))
		if code != http.StatusOK {
			t.Fatalf("post-mutation chase via node%d: status %d: %s", i, code, got)
		}
		if i == 0 {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("post-mutation chase differs between entries:\n%s\nvs\n%s", first, got)
		}
	}
}

func TestClusterReplicatedCacheRevalidates(t *testing.T) {
	nodes, _ := startCluster(t, 3, false, server.Config{})
	ctx := context.Background()

	info, err := nodes[0].cli.Register(ctx, api.RegisterRequest{
		Setting: quickstartSetting, Source: quickstartSource,
	})
	if err != nil {
		t.Fatal(err)
	}
	owner := ownerOf(t, nodes, info.ID)
	entry := nodes[(owner+1)%len(nodes)] // guaranteed non-owner

	body := fmt.Sprintf(`{"scenario":%q}`, info.ID)
	before := metrics.Read()

	// First forwarded read populates the entry's replica.
	code, hdr, b1 := rawDo(t, http.MethodPost, entry.url+"/v1/chase", body)
	if code != http.StatusOK {
		t.Fatalf("first read: %d %s", code, b1)
	}
	if hdr.Get("ETag") == "" {
		t.Fatal("forwarded response carries no ETag")
	}
	// Second read revalidates: the owner answers 304 and the entry serves
	// its local copy.
	code, hdr, b2 := rawDo(t, http.MethodPost, entry.url+"/v1/chase", body)
	if code != http.StatusOK || !bytes.Equal(b1, b2) {
		t.Fatalf("revalidated read differs: %d\n%s\nvs\n%s", code, b1, b2)
	}
	if hdr.Get("X-Cache") != "cluster-hit" {
		t.Fatalf("X-Cache = %q, want cluster-hit", hdr.Get("X-Cache"))
	}
	if d := metrics.Read().Diff(before); d["cluster_cache_hits"] == 0 {
		t.Fatalf("cluster_cache_hits did not advance: %v", d)
	}

	// A mutation through a third entry bumps the version on the owner; the
	// stale replica must miss its revalidation and refresh, never serve.
	if _, err := nodes[(owner+2)%len(nodes)].cli.Insert(ctx, info.ID, api.MutateRequest{
		Tuples: "M(x9,y9).",
	}); err != nil {
		t.Fatal(err)
	}
	code, hdr, b3 := rawDo(t, http.MethodPost, entry.url+"/v1/chase", body)
	if code != http.StatusOK {
		t.Fatalf("post-mutation read: %d %s", code, b3)
	}
	if hdr.Get("X-Cache") == "cluster-hit" {
		t.Fatal("stale replica served as cluster-hit after a mutation")
	}
	if bytes.Equal(b3, b1) {
		t.Fatal("post-mutation body identical to pre-mutation body")
	}
	// And the refreshed replica revalidates again.
	code, hdr, b4 := rawDo(t, http.MethodPost, entry.url+"/v1/chase", body)
	if code != http.StatusOK || hdr.Get("X-Cache") != "cluster-hit" || !bytes.Equal(b3, b4) {
		t.Fatalf("refreshed replica does not revalidate: %d %q", code, hdr.Get("X-Cache"))
	}
}

// TestClusterForwardLoopCut wires two members with disagreeing peer lists —
// each believes the other owns everything — and checks the hop bound turns
// the would-be infinite loop into a 508 forward_loop error.
func TestClusterForwardLoopCut(t *testing.T) {
	lA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	urlA, urlB := "http://"+lA.Addr().String(), "http://"+lB.Addr().String()
	start := func(l net.Listener, self string, peers []string) *client.Client {
		cl, err := cluster.New(cluster.Config{Self: self, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{Cluster: cl})
		hs := &http.Server{Handler: srv}
		go hs.Serve(l)
		t.Cleanup(func() { hs.Close() })
		return client.New(self)
	}
	cliA := start(lA, urlA, []string{urlB}) // A routes everything to B
	start(lB, urlB, []string{urlA})         // B routes everything to A

	_, err = cliA.Chase(context.Background(), api.EvalRequest{Scenario: "anything"})
	wantAPIError(t, err, "forward_loop", 508)
}

func TestClusterHealthz(t *testing.T) {
	nodes, router := startCluster(t, 2, true, server.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	h, err := router.cli.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cluster == nil || h.Cluster.Role != "router" {
		t.Fatalf("router health = %+v", h.Cluster)
	}
	if len(h.Cluster.Peers) != 2 {
		t.Fatalf("peers = %+v", h.Cluster.Peers)
	}
	for _, p := range h.Cluster.Peers {
		if !p.Reachable {
			t.Fatalf("peer %s unreachable", p.URL)
		}
		if p.RingVersion != h.Cluster.RingVersion {
			t.Fatalf("ring drift: peer %s has %s, we have %s", p.URL, p.RingVersion, h.Cluster.RingVersion)
		}
	}
	hn, err := nodes[0].cli.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hn.Cluster == nil || hn.Cluster.Role != "node" || hn.Cluster.Self != nodes[0].url {
		t.Fatalf("node health = %+v", hn.Cluster)
	}
	text, err := nodes[0].cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cluster_forwards", "cluster_forward_errors", "cluster_cache_hits"} {
		if !strings.Contains(text, name) {
			t.Fatalf("/metricsz misses %s", name)
		}
	}
}
