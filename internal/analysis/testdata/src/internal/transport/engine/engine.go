// Package engine is a lockorder fixture mirroring the node engine's
// split of the ranked mutexes: mu and mbMu on the node, injMu per group.
package engine

import "sync"

type Group struct{ injMu sync.Mutex }

type Node struct{ mu, mbMu sync.Mutex }

// boxUnderInjector boxes a filtered message with the injector locked.
func (n *Node) boxUnderInjector(g *Group) {
	g.injMu.Lock()
	n.mbMu.Lock() // want `acquires mbMu while holding injMu`
	n.mbMu.Unlock()
	g.injMu.Unlock()
}

// reboxUnderSection is the drain's crash-window path: mu, then mbMu.
func (n *Node) reboxUnderSection() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mbMu.Lock()
	n.mbMu.Unlock()
}
