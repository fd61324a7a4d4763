package server

import (
	"sync"

	"repro/internal/dependency"
	"repro/internal/metrics"
	"repro/internal/parser"
)

// sharedSetting is one parsed and validated setting with its canonical
// text, shared by pointer by every resident scenario built on it. Its
// setting and text never change; refs and keys belong to the table and are
// guarded by its mutex.
type sharedSetting struct {
	setting *dependency.Setting
	text    string // canonical form (parser.FormatSetting)

	refs int            // references held by resident scenarios
	keys map[string]int // table keys -> references taken under each; nil while not in the table
}

// settingTable shares parsed settings across the scenarios of one server.
// The paper's complexity results fix the setting and vary the source, and
// so does the traffic: many scenarios, few settings. Each entry is held
// under its canonical text and under every submitted text a resident
// scenario was registered with, so a repeat registration, a differently
// formatted text of the same setting, a page-in and a handoff install all
// skip the parse, the format, the acyclicity tests and the plan
// compilation.
//
// An entry lives while some resident scenario holds a reference on it: a
// scenario acquires one when it is built and the registry's eviction hook
// releases it when it leaves residency (DELETE, capacity eviction,
// page-out). Sharing is safe because a Setting does not change after
// parsing: its plans, templates and acyclicity answers are computed once
// behind sync.Once, and chase, plan-evaluation and enumeration state is
// created per call.
type settingTable struct {
	mu sync.Mutex
	m  map[string]*sharedSetting
}

func newSettingTable() *settingTable {
	return &settingTable{m: make(map[string]*sharedSetting)}
}

// lookup returns the shared setting for text, parsing it on a miss. It
// takes no reference, so a miss is not inserted: the entry it returns
// joins the table only when a scenario acquires it. A failed parse is
// returned as is and leaves nothing behind.
func (t *settingTable) lookup(text string) (*sharedSetting, error) {
	t.mu.Lock()
	e := t.m[text]
	t.mu.Unlock()
	if e != nil {
		return e, nil
	}
	metrics.ServerSettingParses.Inc()
	s, err := parser.ParseSetting(text)
	if err != nil {
		return nil, err
	}
	canonical := parser.FormatSetting(s)
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.m[canonical]; e != nil {
		return e, nil
	}
	return &sharedSetting{setting: s, text: canonical}, nil
}

// acquire takes a reference on e's setting for a scenario registered with
// text (e must come from lookup(text)) and returns the entry the table
// holds. That is e itself unless the table holds the same canonical text
// under another entry already, which then wins: two registrations that
// raced on a new text both get the first one inserted. The caller releases
// the reference with release(entry, text).
func (t *settingTable) acquire(e *sharedSetting, text string) *sharedSetting {
	t.mu.Lock()
	defer t.mu.Unlock()
	held := t.m[e.text]
	if held == nil {
		held = e
		held.keys = map[string]int{e.text: 0}
		t.m[e.text] = held
	}
	if _, ok := held.keys[text]; !ok {
		t.m[text] = held
	}
	held.keys[text]++
	held.refs++
	return held
}

// release returns a reference taken by acquire(e, text). A submitted text
// leaves the table with the last reference taken under it; the entry
// leaves with its last reference.
func (t *settingTable) release(e *sharedSetting, text string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.refs--
	if e.keys[text]--; e.keys[text] == 0 && text != e.text {
		delete(e.keys, text)
		delete(t.m, text)
	}
	if e.refs == 0 {
		for k := range e.keys {
			delete(t.m, k)
		}
		e.keys = nil
	}
}
