package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Role is what a cluster member does with requests it does not own.
type Role int

const (
	// RoleAuto derives the role from the peer list: a node whose Self URL
	// appears in Peers is a data node, anything else is a router.
	RoleAuto Role = iota
	// RoleNode owns a ring segment and serves its scenarios locally; like
	// every member it forwards non-owned requests to their owner.
	RoleNode
	// RoleRouter owns nothing: a thin stateless gateway that forwards every
	// scenario-scoped request to the owning node and replicates hot results
	// in its local cache.
	RoleRouter
)

// String returns the wire name of the role ("node" or "router").
func (r Role) String() string {
	if r == RoleRouter {
		return "router"
	}
	return "node"
}

// ParseRole maps the -cluster-role flag values.
func ParseRole(s string) (Role, error) {
	switch s {
	case "", "auto":
		return RoleAuto, nil
	case "node":
		return RoleNode, nil
	case "router":
		return RoleRouter, nil
	}
	return 0, fmt.Errorf("cluster: unknown role %q (want auto, node or router)", s)
}

// Config describes one member's view of the cluster at boot. Members
// started with the same Peers list (and Replicas) derive the same epoch-1
// ring with no coordination; from there the membership protocol (package
// membership) can move the view forward through proposed/committed epochs.
type Config struct {
	// Self is this process's advertised base URL (how peers reach it),
	// e.g. "http://10.0.0.1:8080".
	Self string
	// Peers are the data nodes' base URLs — the ring members. Routers are
	// deliberately not listed: they own nothing.
	Peers []string
	// Role is node, router, or auto (derive from Self ∈ Peers).
	Role Role
	// Replicas is the virtual-node count per peer (0 = DefaultReplicas).
	Replicas int
	// MaxHops bounds forwarding chains (0 = DefaultMaxHops). One hop
	// resolves every request under agreeing rings; the bound exists to
	// break loops under disagreeing ones.
	MaxHops int
}

// DefaultMaxHops bounds a forwarding chain: entry node → owner is one hop;
// anything longer means ring disagreement or a transfer window, and the
// third hop gives transitional routing (old owner → new owner probes
// during membership changes, rolling peer-list edits) one chance to land
// on a node that answers before the loop is cut.
const DefaultMaxHops = 3

// View is one committed (or proposed) cluster configuration: a monotone
// epoch number plus the data-node member list it covers. Equal views
// produce identical rings on every member.
type View struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
}

// normalize sorts and deduplicates the member list in place-ish.
func (v View) normalize() View {
	uniq := make([]string, 0, len(v.Members))
	seen := make(map[string]bool, len(v.Members))
	for _, m := range v.Members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	return View{Epoch: v.Epoch, Members: uniq}
}

// equal reports whether two views describe the same epoch and member set.
func (v View) equal(o View) bool {
	if v.Epoch != o.Epoch || len(v.Members) != len(o.Members) {
		return false
	}
	for i := range v.Members {
		if v.Members[i] != o.Members[i] {
			return false
		}
	}
	return true
}

// Route is the routing decision for one key. Outside a transfer window
// Moving is false and Owner is the (single) ring owner. During a window a
// key whose owner differs between the current and the proposed ring is
// Moving: Owner is the old owner (epoch N) and New the future one (epoch
// N+1). Callers route moving keys to the old owner until the per-scenario
// handoff lands there.
type Route struct {
	Owner  string
	New    string
	Moving bool
}

// views is the atomically-swapped routing state: the committed view (and
// its ring) plus, during a transfer window, the proposed next view.
type views struct {
	cur      View
	ring     *Ring
	prop     *View
	propRing *Ring
	version  string // RingVersion fingerprint of cur
}

// Cluster is one member's cluster state: its identity, role, and the
// epoched view(s) it routes with. Reads are lock-free; view transitions
// (Propose/Commit/Abort) are serialized. Safe for concurrent use.
type Cluster struct {
	self     string
	role     Role
	replicas int
	maxHops  int

	mu sync.Mutex // serializes view writers
	v  atomic.Pointer[views]
}

// NormalizeURL canonicalizes a member URL so equal addresses written
// differently ("http://a:8080/", "http://a:8080") collapse to one ring
// identity.
func NormalizeURL(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", fmt.Errorf("cluster: empty member URL")
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("cluster: member URL %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("cluster: member URL %q must be http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("cluster: member URL %q has no host", raw)
	}
	u.Path = strings.TrimRight(u.Path, "/")
	u.RawQuery, u.Fragment = "", ""
	return u.String(), nil
}

// New validates the configuration and builds the member's cluster state.
// The static peer list becomes the committed epoch-1 view, so a fleet
// booted the old way forms the same ring on every member with no
// coordination — and can still grow later via the membership protocol.
func New(cfg Config) (*Cluster, error) {
	self, err := NormalizeURL(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("cluster: self: %w", err)
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	peers := make([]string, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		n, err := NormalizeURL(p)
		if err != nil {
			return nil, err
		}
		peers = append(peers, n)
	}
	ring := NewRing(peers, cfg.Replicas)
	inRing := false
	for _, n := range ring.Nodes() {
		if n == self {
			inRing = true
			break
		}
	}
	role := cfg.Role
	if role == RoleAuto {
		role = RoleNode
		if !inRing {
			role = RoleRouter
		}
	}
	if role == RoleNode && !inRing {
		return nil, fmt.Errorf("cluster: role node but self %s is not in the peer list %v", self, ring.Nodes())
	}
	if role == RoleRouter && inRing {
		return nil, fmt.Errorf("cluster: role router but self %s is in the peer list (peers would forward to a node that owns nothing)", self)
	}
	maxHops := cfg.MaxHops
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	c := &Cluster{self: self, role: role, replicas: cfg.Replicas, maxHops: maxHops}
	c.install(View{Epoch: 1, Members: ring.Nodes()}, ring, nil, nil)
	return c, nil
}

// NewJoining builds the cluster state for a node booting with
// -cluster-join: a data node that is not yet a member of anything. Its
// view is the empty epoch-0 ring (it owns no keys and forwards nothing);
// the join handshake installs the real view via Propose/Commit.
func NewJoining(self string, replicas, maxHops int) (*Cluster, error) {
	n, err := NormalizeURL(self)
	if err != nil {
		return nil, fmt.Errorf("cluster: self: %w", err)
	}
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	c := &Cluster{self: n, role: RoleNode, replicas: replicas, maxHops: maxHops}
	c.install(View{Epoch: 0}, NewRing(nil, replicas), nil, nil)
	return c, nil
}

// install swaps the routing state (callers hold c.mu or are constructors).
func (c *Cluster) install(cur View, ring *Ring, prop *View, propRing *Ring) {
	if ring == nil {
		ring = NewRing(cur.Members, c.replicas)
	}
	if prop != nil && propRing == nil {
		propRing = NewRing(prop.Members, c.replicas)
	}
	c.v.Store(&views{cur: cur, ring: ring, prop: prop, propRing: propRing, version: ringVersion(ring)})
}

// ringVersion fingerprints the ring configuration: equal peer sets (and
// vnode counts) produce equal versions on every member, so /healthz
// exposes a value operators can diff across nodes to catch peer-list
// drift.
func ringVersion(r *Ring) string {
	h := sha256.New()
	for _, n := range r.nodes {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	h.Write([]byte(strconv.Itoa(len(r.points))))
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// Propose opens a transfer window: members route with both cur (epoch N)
// and prop (epoch N+1) until Commit or Abort. If the member's committed
// view is older than cur it catches up to cur first. Re-proposing the
// identical window is a no-op; proposing over a different open window is
// an error (one transition at a time, cluster-wide).
func (c *Cluster) Propose(cur, prop View) error {
	cur, prop = cur.normalize(), prop.normalize()
	if prop.Epoch != cur.Epoch+1 {
		return fmt.Errorf("cluster: proposed epoch %d is not current %d + 1", prop.Epoch, cur.Epoch)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.v.Load()
	if v.prop != nil {
		if v.prop.equal(prop) {
			return nil
		}
		return fmt.Errorf("cluster: transition to epoch %d already in progress", v.prop.Epoch)
	}
	if v.cur.Epoch > cur.Epoch {
		return fmt.Errorf("cluster: proposal for epoch %d is stale (committed epoch is %d)", prop.Epoch, v.cur.Epoch)
	}
	ring := v.ring
	if !v.cur.equal(cur) {
		ring = nil // recompute for the adopted base view
	}
	c.install(cur, ring, &prop, nil)
	return nil
}

// Commit makes epoch the committed view. If the matching proposal is open
// it is promoted; otherwise (a member that missed the propose broadcast)
// the view is adopted outright from the member list. Commits at or below
// the committed epoch are no-ops.
func (c *Cluster) Commit(epoch uint64, members []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.v.Load()
	if v.cur.Epoch >= epoch {
		return nil
	}
	if v.prop != nil && v.prop.Epoch == epoch {
		c.install(*v.prop, v.propRing, nil, nil)
		return nil
	}
	if len(members) == 0 {
		return fmt.Errorf("cluster: commit for unknown epoch %d carries no member list", epoch)
	}
	c.install(View{Epoch: epoch, Members: members}.normalize(), nil, nil, nil)
	return nil
}

// Abort discards the proposed view with the given epoch (no-op if no such
// proposal is open). The committed view keeps routing as before.
func (c *Cluster) Abort(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.v.Load()
	if v.prop != nil && v.prop.Epoch == epoch {
		c.install(v.cur, v.ring, nil, nil)
	}
}

// RouteKey resolves key against the epoched view(s): outside a window the
// single committed owner; inside, both owners when the key is moving.
func (c *Cluster) RouteKey(key string) Route {
	v := c.v.Load()
	o := v.ring.Owner(key)
	if v.prop == nil {
		return Route{Owner: o}
	}
	n := v.propRing.Owner(key)
	if n == o {
		return Route{Owner: o}
	}
	return Route{Owner: o, New: n, Moving: true}
}

// Epoch returns the committed view's epoch.
func (c *Cluster) Epoch() uint64 { return c.v.Load().cur.Epoch }

// Current returns the committed view.
func (c *Cluster) Current() View {
	cur := c.v.Load().cur
	return View{Epoch: cur.Epoch, Members: append([]string(nil), cur.Members...)}
}

// Proposed returns the open proposal, if a transfer window is open.
func (c *Cluster) Proposed() (View, bool) {
	v := c.v.Load()
	if v.prop == nil {
		return View{}, false
	}
	return View{Epoch: v.prop.Epoch, Members: append([]string(nil), v.prop.Members...)}, true
}

// Owner returns the base URL of the node owning the scenario identity key
// in the committed view.
func (c *Cluster) Owner(key string) string { return c.v.Load().ring.Owner(key) }

// Self returns this member's normalized base URL.
func (c *Cluster) Self() string { return c.self }

// Role returns this member's role.
func (c *Cluster) Role() Role { return c.role }

// RingVersion returns the committed view's configuration fingerprint:
// equal member sets produce equal versions on every member.
func (c *Cluster) RingVersion() string { return c.v.Load().version }

// MaxHops returns the forwarding hop bound.
func (c *Cluster) MaxHops() int { return c.maxHops }

// Replicas returns the configured virtual-node count (0 = default).
func (c *Cluster) Replicas() int { return c.replicas }

// Peers returns the committed view's members, sorted.
func (c *Cluster) Peers() []string { return c.v.Load().ring.Nodes() }

// AllMembers returns the union of committed and proposed members, sorted —
// the peers that may hold data during a transfer window.
func (c *Cluster) AllMembers() []string {
	v := c.v.Load()
	if v.prop == nil {
		return v.ring.Nodes()
	}
	seen := make(map[string]bool, len(v.cur.Members)+len(v.prop.Members))
	out := make([]string, 0, len(v.cur.Members)+len(v.prop.Members))
	for _, lst := range [][]string{v.cur.Members, v.prop.Members} {
		for _, m := range lst {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	sort.Strings(out)
	return out
}
