// Package consistency is the policy layer of the cache consistency
// machinery: it decides *what* grain to lock, *what* unit to ship, and
// *how* to call copies back, while internal/core keeps the mechanism
// (buffer pools, copy table, lock manager, transport, WAL) that carries
// those decisions out. Each of the paper's protocols (§2, §4) is one
// Policy implementation; new variants are added here without touching the
// mechanism.
package consistency

import (
	"fmt"
	"strings"
)

// Protocol names a cache consistency algorithm.
type Protocol int

// The implemented protocols.
const (
	// PS is the basic page server: page-grain locking and callbacks.
	PS Protocol = iota + 1
	// PSOO is object-grain locking with pure object callbacks.
	PSOO
	// PSOA adds adaptive callbacks: whole-page invalidation is attempted
	// first, falling back to object invalidation on conflict.
	PSOA
	// PSAA adds adaptive locking: object writes opportunistically escalate
	// to per-transaction adaptive page locks, deescalated on remote
	// conflict.
	PSAA
	// OS is the pure object server baseline of the authors' earlier study
	// (reference [5]): objects — not pages — are the unit of transfer and
	// caching, with object-grain locking and callbacks. It is not part of
	// the figures in this paper but serves as the comparison point for the
	// poor-clustering discussion in §2.
	OS
	// PSAH is the history-driven variant this repo adds on top of the
	// paper (motivated by its §7 remark that the grain of locking ought to
	// be chosen per hot spot): PSAA mechanism, but a per-page conflict and
	// escalation history ring advises the initial grain and the callback
	// strategy for each page. Cold pages behave exactly like PSAA.
	PSAH
)

// String renders the protocol name as used in the paper.
func (p Protocol) String() string {
	switch p {
	case PS:
		return "PS"
	case PSOO:
		return "PS-OO"
	case PSOA:
		return "PS-OA"
	case PSAA:
		return "PS-AA"
	case OS:
		return "OS"
	case PSAH:
		return "PS-AH"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// protocols lists every protocol, in the order error messages name them.
var protocols = []Protocol{PS, PSOO, PSOA, PSAA, PSAH, OS}

// Parse maps a protocol name ("PS-AA", "psaa", "ps_aa", ...) to its value.
// The error for an unknown name lists the known ones.
func Parse(s string) (Protocol, error) {
	norm := strings.ToUpper(strings.ReplaceAll(s, "_", "-"))
	names := make([]string, len(protocols))
	for i, p := range protocols {
		name := p.String()
		if norm == name || norm == strings.ReplaceAll(name, "-", "") {
			return p, nil
		}
		names[i] = name
	}
	return 0, fmt.Errorf("unknown protocol %q (%s)", s, strings.Join(names, ", "))
}

// OrDefault maps the zero Protocol to the default (PSAA, the paper's
// headline algorithm) and returns any other value unchanged.
func OrDefault(p Protocol) Protocol {
	if p == 0 {
		return PSAA
	}
	return p
}
