package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://node%d:8080", i)
	}
	return nodes
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("scenario-%d", i)
	}
	return out
}

// TestRingDeterministic pins the core contract: the same peer list — in any
// order, with duplicates, with equivalent URL spellings — yields identical
// ownership for every key, because every node derives the ring
// independently and they must agree.
func TestRingDeterministic(t *testing.T) {
	nodes := benchNodes(5)
	r1 := NewRing(nodes, 64)

	shuffled := append([]string(nil), nodes...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	withDups := append(append([]string(nil), shuffled...), nodes[0], nodes[3])
	r2 := NewRing(withDups, 64)

	for _, k := range keys(2000) {
		if r1.Owner(k) != r2.Owner(k) {
			t.Fatalf("ownership of %q differs across construction orders: %s vs %s", k, r1.Owner(k), r2.Owner(k))
		}
	}
	// A second process (fresh construction) agrees too.
	r3 := NewRing(nodes, 64)
	for _, k := range keys(100) {
		if r1.Owner(k) != r3.Owner(k) {
			t.Fatalf("ownership of %q differs across ring instances", k)
		}
	}
}

// TestClusterOwnershipAgreesAcrossMembers builds the cluster state of every
// member of one peer list (nodes and a router) and checks they all compute
// the same owner and ring version — the property the forwarding design
// rests on.
func TestClusterOwnershipAgreesAcrossMembers(t *testing.T) {
	peers := benchNodes(4)
	members := make([]*Cluster, 0, 5)
	for _, self := range peers {
		c, err := New(Config{Self: self, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		if c.Role() != RoleNode {
			t.Fatalf("%s: role = %v, want node", self, c.Role())
		}
		members = append(members, c)
	}
	router, err := New(Config{Self: "http://router:9090", Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	if router.Role() != RoleRouter {
		t.Fatalf("router role = %v", router.Role())
	}
	members = append(members, router)

	for _, k := range keys(1000) {
		want := members[0].Owner(k)
		owners := 0
		for _, m := range members {
			if m.Owner(k) != want {
				t.Fatalf("member %s maps %q to %s, others to %s", m.Self(), k, m.Owner(k), want)
			}
			if m.Role() == RoleNode && m.RouteKey(k).Owner == m.Self() {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("%q has %d owners, want exactly 1", k, owners)
		}
		if m := members[0]; m.RingVersion() != router.RingVersion() {
			t.Fatalf("ring versions differ: %s vs %s", m.RingVersion(), router.RingVersion())
		}
	}
}

// TestRingMinimalMovement is the consistent-hashing property: growing or
// shrinking an N-node ring by one remaps only about 1/N of the keys, and
// every remapped key moves to or from the changed node — survivors never
// shuffle among themselves.
func TestRingMinimalMovement(t *testing.T) {
	const nKeys = 20_000
	ks := keys(nKeys)
	for _, n := range []int{3, 4, 8} {
		nodes := benchNodes(n)
		small := NewRing(nodes, 0)
		added := fmt.Sprintf("http://node%d:8080", n)
		big := NewRing(append(append([]string(nil), nodes...), added), 0)

		moved := 0
		for _, k := range ks {
			before, after := small.Owner(k), big.Owner(k)
			if before == after {
				continue
			}
			moved++
			if after != added {
				// A key that changed owner without involving the new node
				// would be gratuitous movement.
				t.Fatalf("n=%d: key %q moved %s -> %s, not to the added node", n, k, before, after)
			}
		}
		want := float64(nKeys) / float64(n+1)
		if f := float64(moved); f < want*0.7 || f > want*1.3 {
			t.Fatalf("n=%d->%d: %d of %d keys moved, want ~%.0f (1/%d)", n, n+1, moved, nKeys, want, n+1)
		}
		// Removal is the mirror image: shrink big back to small.
		movedBack := 0
		for _, k := range ks {
			if big.Owner(k) != small.Owner(k) {
				movedBack++
				if big.Owner(k) != added {
					t.Fatalf("n=%d: removal moved %q off a surviving node", n, k)
				}
			}
		}
		if movedBack != moved {
			t.Fatalf("n=%d: add moved %d keys but remove moved %d", n, moved, movedBack)
		}
	}
}

// TestRingBalance checks the virtual nodes spread load: no node of an
// 8-node ring at the default replica count carries more than twice the
// fair share over a large key population.
func TestRingBalance(t *testing.T) {
	const nKeys = 50_000
	nodes := benchNodes(8)
	r := NewRing(nodes, 0)
	counts := make(map[string]int)
	for _, k := range keys(nKeys) {
		counts[r.Owner(k)]++
	}
	fair := nKeys / len(nodes)
	for _, n := range nodes {
		if c := counts[n]; c < fair/2 || c > fair*2 {
			t.Fatalf("node %s owns %d keys, fair share %d (counts %v)", n, c, fair, counts)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	if got := NewRing(nil, 0).Owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	one := NewRing([]string{"http://only:1"}, 0)
	for _, k := range keys(50) {
		if one.Owner(k) != "http://only:1" {
			t.Fatalf("single-node ring must own everything")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	peers := benchNodes(3)
	if _, err := New(Config{Self: peers[0], Peers: nil}); err == nil {
		t.Fatal("empty peer list must be rejected")
	}
	if _, err := New(Config{Self: "not-a-url", Peers: peers}); err == nil {
		t.Fatal("bad self URL must be rejected")
	}
	if _, err := New(Config{Self: "http://elsewhere:1", Peers: peers, Role: RoleNode}); err == nil {
		t.Fatal("role node outside the peer list must be rejected")
	}
	if _, err := New(Config{Self: peers[1], Peers: peers, Role: RoleRouter}); err == nil {
		t.Fatal("role router inside the peer list must be rejected")
	}
	// URL spellings normalize: trailing slash and explicit role agree with auto.
	c, err := New(Config{Self: peers[0] + "/", Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	if c.Self() != peers[0] || c.Role() != RoleNode {
		t.Fatalf("normalization failed: self=%q role=%v", c.Self(), c.Role())
	}
	if _, err := ParseRole("bogus"); err == nil {
		t.Fatal("ParseRole must reject unknown roles")
	}
}
