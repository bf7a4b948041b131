package core

import "mediaworm/internal/flit"

// DeathFlag is the sticky "a message has died" flag of one fabric
// (DESIGN.md §19). Every kill goes through Kill, so while the flag is clear
// no message in the fabric is dead, and the per-cycle dead-worm reaping in
// routers and NIs is skipped outright. A fabric shares one flag with its
// routers and NIs; a standalone router owns its own. The flag is derived
// state: it is never serialized, and a restore raises it when any restored
// message is dead.
type DeathFlag struct{ raised bool }

// Kill marks m dead and raises the flag. It is the only way a message dies.
func (d *DeathFlag) Kill(m *flit.Message) {
	m.Dead = true
	d.raised = true
}

// Raised reports whether any message has died.
func (d *DeathFlag) Raised() bool { return d.raised }

// RaiseIfDead raises the flag when tbl holds a dead message — the restore
// path, since the flag itself is not serialized.
func (d *DeathFlag) RaiseIfDead(tbl *flit.MsgTable) {
	if tbl.AnyDead() {
		d.raised = true
	}
}
