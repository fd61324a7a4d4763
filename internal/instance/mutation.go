package instance

import "fmt"

// Mutation is one source-instance change: the insertion or deletion of a
// single ground atom. Mutations are the unit of the incremental-maintenance
// subsystem (internal/incr): the server's mutation endpoints, the durable
// store's WAL and the dxcli apply mode all speak in terms of them.
type Mutation struct {
	// Insert distinguishes an insertion (true) from a deletion (false).
	Insert bool
	// Atom is the affected atom.
	Atom Atom
}

func (m Mutation) String() string {
	if m.Insert {
		return fmt.Sprintf("+ %v", m.Atom)
	}
	return fmt.Sprintf("- %v", m.Atom)
}

// Version returns the instance's monotone mutation counter: it starts at
// zero for an empty instance and increases by one for every atom actually
// inserted or removed (duplicate inserts and absent-atom removals do not
// count). Clone and Reduct carry the counter over, so a snapshot's version
// identifies the content state it was taken at. ReplaceValue advances the
// counter through its removals and re-insertions, and Rollback by one per
// atom it removes.
func (ins *Instance) Version() uint64 { return ins.version }
