package cluster

import (
	"strings"
	"testing"
)

func mustNew(t *testing.T, self string, peers []string) *Cluster {
	t.Helper()
	c, err := New(Config{Self: self, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// transitioning reports whether c has a transfer window open.
func transitioning(c *Cluster) bool {
	_, open := c.Proposed()
	return open
}

var threePeers = []string{"http://a:1", "http://b:1", "http://c:1"}

// TestStaticBootIsEpochOne pins the backward-compatible boot: a statically
// configured member starts at committed epoch 1 with the peer list as the
// view, no transition open.
func TestStaticBootIsEpochOne(t *testing.T) {
	c := mustNew(t, "http://a:1", threePeers)
	if c.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", c.Epoch())
	}
	if transitioning(c) {
		t.Fatal("fresh member reports an open transition")
	}
	cur := c.Current()
	if len(cur.Members) != 3 {
		t.Fatalf("members = %v, want 3", cur.Members)
	}
	rt := c.RouteKey("anything")
	if rt.Moving || rt.Owner == "" {
		t.Fatalf("stable route = %+v, want single owner", rt)
	}
}

// TestJoiningBootIsEmptyEpochZero checks the -cluster-join boot state: a
// data node with an empty committed ring that owns nothing.
func TestJoiningBootIsEmptyEpochZero(t *testing.T) {
	c, err := NewJoining("http://d:1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 0 {
		t.Fatalf("epoch = %d, want 0", c.Epoch())
	}
	if c.Role() != RoleNode {
		t.Fatalf("role = %v, want node", c.Role())
	}
	if got := c.Owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q, want none", got)
	}
	if rt := c.RouteKey("k"); rt.Owner == c.Self() || rt.Moving {
		t.Fatalf("joiner routes k to %+v before joining", rt)
	}
}

// TestProposeCommitMovesExactlyTheMinimalKeys drives one full transition
// and checks the dual-ring window: only keys whose owner differs between
// the rings are Moving, and after commit the proposed ring is the
// committed one.
func TestProposeCommitMovesExactlyTheMinimalKeys(t *testing.T) {
	c := mustNew(t, "http://a:1", threePeers)
	cur := c.Current()
	joined := append(append([]string(nil), cur.Members...), "http://d:1")
	prop := View{Epoch: 2, Members: joined}
	if err := c.Propose(cur, prop); err != nil {
		t.Fatal(err)
	}
	if !transitioning(c) {
		t.Fatal("no window open after propose")
	}

	oldRing := NewRing(cur.Members, 0)
	newRing := NewRing(joined, 0)
	moving, stable := 0, 0
	for i := 0; i < 200; i++ {
		key := "scenario-" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
		rt := c.RouteKey(key)
		wantOld, wantNew := oldRing.Owner(key), newRing.Owner(key)
		if wantOld == wantNew {
			stable++
			if rt.Moving || rt.Owner != wantOld {
				t.Fatalf("key %q: route %+v, want stable owner %s", key, rt, wantOld)
			}
		} else {
			moving++
			if !rt.Moving || rt.Owner != wantOld || rt.New != wantNew {
				t.Fatalf("key %q: route %+v, want moving %s -> %s", key, rt, wantOld, wantNew)
			}
		}
	}
	if moving == 0 || stable == 0 {
		t.Fatalf("degenerate key split: moving=%d stable=%d", moving, stable)
	}
	// Consistent hashing: adding 1 node to 3 should move roughly 1/4 of
	// the keys, certainly under half.
	if moving > 100 {
		t.Fatalf("%d/200 keys moving after adding one node to three", moving)
	}

	if err := c.Commit(2, nil); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 2 || transitioning(c) {
		t.Fatalf("after commit: epoch=%d transitioning=%v", c.Epoch(), transitioning(c))
	}
	for i := 0; i < 50; i++ {
		key := "post-" + string(rune('a'+i))
		if got, want := c.Owner(key), newRing.Owner(key); got != want {
			t.Fatalf("committed owner of %q = %s, want %s", key, got, want)
		}
	}
}

// TestAbortRestoresTheCommittedView checks an aborted window leaves
// routing exactly as before the propose.
func TestAbortRestoresTheCommittedView(t *testing.T) {
	c := mustNew(t, "http://a:1", threePeers)
	cur := c.Current()
	before := c.RingVersion()
	prop := View{Epoch: 2, Members: append(append([]string(nil), cur.Members...), "http://d:1")}
	if err := c.Propose(cur, prop); err != nil {
		t.Fatal(err)
	}
	c.Abort(2)
	if transitioning(c) || c.Epoch() != 1 || c.RingVersion() != before {
		t.Fatalf("abort did not restore: epoch=%d transitioning=%v", c.Epoch(), transitioning(c))
	}
	// Aborting a non-open epoch is a no-op.
	c.Abort(7)
	if c.Epoch() != 1 {
		t.Fatal("stray abort changed the view")
	}
}

// TestProposeIdempotentAndExclusive checks re-proposing the identical
// window succeeds (broadcast retries are safe) while a different proposal
// over an open window is refused — one transition at a time.
func TestProposeIdempotentAndExclusive(t *testing.T) {
	c := mustNew(t, "http://a:1", threePeers)
	cur := c.Current()
	prop := View{Epoch: 2, Members: append(append([]string(nil), cur.Members...), "http://d:1")}
	if err := c.Propose(cur, prop); err != nil {
		t.Fatal(err)
	}
	if err := c.Propose(cur, prop); err != nil {
		t.Fatalf("identical re-propose refused: %v", err)
	}
	other := View{Epoch: 2, Members: append(append([]string(nil), cur.Members...), "http://e:1")}
	if err := c.Propose(cur, other); err == nil {
		t.Fatal("conflicting proposal over an open window accepted")
	}
}

// TestCommitAdoptsUnknownEpochFromMembers checks a member that missed the
// propose broadcast still converges: a commit carrying the member list
// installs the view outright, and stale commits are no-ops.
func TestCommitAdoptsUnknownEpochFromMembers(t *testing.T) {
	c := mustNew(t, "http://a:1", threePeers)
	members := append(append([]string(nil), threePeers...), "http://d:1")
	if err := c.Commit(5, members); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 5 || len(c.Current().Members) != 4 {
		t.Fatalf("adopted view: epoch=%d members=%v", c.Epoch(), c.Current().Members)
	}
	// Below or at the committed epoch: no-op, not an error.
	if err := c.Commit(3, threePeers); err != nil {
		t.Fatalf("stale commit errored: %v", err)
	}
	if c.Epoch() != 5 {
		t.Fatal("stale commit rewound the view")
	}
	// Unknown epoch with no member list cannot be adopted.
	if err := c.Commit(9, nil); err == nil {
		t.Fatal("memberless commit for unknown epoch accepted")
	}
}

// TestAllMembersUnionDuringWindow checks AllMembers covers both rings
// inside a window (a drain-leave window must still list the leaver).
func TestAllMembersUnionDuringWindow(t *testing.T) {
	c := mustNew(t, "http://a:1", threePeers)
	cur := c.Current()
	rest := []string{"http://a:1", "http://b:1"} // c leaves
	if err := c.Propose(cur, View{Epoch: 2, Members: rest}); err != nil {
		t.Fatal(err)
	}
	all := c.AllMembers()
	if len(all) != 3 {
		t.Fatalf("AllMembers during leave window = %v, want all three", all)
	}
	if err := c.Commit(2, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.AllMembers(); len(got) != 2 {
		t.Fatalf("AllMembers after leave = %v, want two", got)
	}
}
