// Package workload generates the synthetic access patterns of the paper's
// performance study (Table 2): HOTCOLD, UNIFORM, HICON, and PRIVATE. A
// workload instance produces, per application, transactions described as
// strings of object references with read/write flags; the harness executes
// them against the system, re-executing aborted transactions with the same
// reference string, exactly as the paper describes.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// Kind names a workload from Table 2.
type Kind int

// The paper's workloads.
const (
	HotCold Kind = iota + 1
	Uniform
	HiCon
	Private
	// HotSpot is not from Table 2: every application shares one small hot
	// page set but writes only its own slot of each hot page, so
	// concurrent writers false-share hot pages. The pattern thrashes
	// PS-AA's adaptive locking (grant, deescalate, repeat) and is the
	// scenario that separates the PS-AH history advisor from PS-AA.
	HotSpot
)

// String renders the workload name.
func (k Kind) String() string {
	switch k {
	case HotCold:
		return "HOTCOLD"
	case Uniform:
		return "UNIFORM"
	case HiCon:
		return "HICON"
	case Private:
		return "PRIVATE"
	case HotSpot:
		return "HOTSPOT"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// kinds lists every workload, in the order error messages name them.
var kinds = []Kind{HotCold, Uniform, HiCon, Private, HotSpot}

// ParseKind maps a workload name in any case ("HOTCOLD", "hotcold") to its
// Kind. The error for an unknown name lists the known ones.
func ParseKind(s string) (Kind, error) {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
		names[i] = k.String()
	}
	return 0, fmt.Errorf("unknown workload %q (%s)", s, strings.Join(names, ", "))
}

// Params are the Table 2 knobs for one application.
type Params struct {
	// TransSize is the mean number of pages accessed per transaction.
	TransSize int
	// PageLocalityMin and PageLocalityMax bound the number of objects
	// accessed per page (uniformly distributed).
	PageLocalityMin int
	PageLocalityMax int
	// HotBounds is the half-open page range [Lo, Hi) of the hot set;
	// empty (Lo == Hi) for UNIFORM.
	HotLo, HotHi uint32
	// ColdLo, ColdHi is the cold range.
	ColdLo, ColdHi uint32
	// HotAccProb is the probability that a page access hits the hot range.
	HotAccProb float64
	// HotWrtProb and ColdWrtProb are per-object update probabilities.
	HotWrtProb  float64
	ColdWrtProb float64
	// ObjectsPerPage bounds slot selection.
	ObjectsPerPage int
	// HotSlotPinned pins every hot-range access to HotSlot (one reference
	// per hot page, updated with HotWrtProb). HOTSPOT gives each
	// application its own slot so concurrent writers false-share the hot
	// pages without ever touching the same object.
	HotSlotPinned bool
	HotSlot       uint16
}

// Ref is one object reference in a transaction's string.
type Ref struct {
	Page  uint32
	Slot  uint16
	Write bool
}

// Transaction is a reference string, executed atomically (and re-executed
// verbatim on abort).
type Transaction struct {
	Refs []Ref
}

// Generator produces transactions for one application.
type Generator struct {
	params Params
	rng    *rand.Rand
}

// NewGenerator returns a generator seeded deterministically.
func NewGenerator(params Params, seed int64) (*Generator, error) {
	if params.TransSize <= 0 {
		return nil, fmt.Errorf("workload: TransSize must be positive")
	}
	if params.PageLocalityMin <= 0 || params.PageLocalityMax < params.PageLocalityMin {
		return nil, fmt.Errorf("workload: bad page locality range [%d,%d]", params.PageLocalityMin, params.PageLocalityMax)
	}
	if params.ObjectsPerPage < params.PageLocalityMax {
		return nil, fmt.Errorf("workload: page locality max %d exceeds objects per page %d", params.PageLocalityMax, params.ObjectsPerPage)
	}
	if params.HotAccProb > 0 && params.HotHi <= params.HotLo {
		return nil, fmt.Errorf("workload: empty hot range with HotAccProb %v", params.HotAccProb)
	}
	if params.ColdHi <= params.ColdLo {
		return nil, fmt.Errorf("workload: empty cold range")
	}
	return &Generator{params: params, rng: rand.New(rand.NewSource(seed))}, nil
}

// Params returns the generator's parameters.
func (g *Generator) Params() Params { return g.params }

// pickPage draws a page number per the hot/cold split. The cold range may
// surround the hot range (HOTCOLD's "rest of DB"): hot pages drawn from
// the cold range are skipped by re-drawing.
func (g *Generator) pickPage() uint32 {
	p := g.params
	if p.HotAccProb > 0 && g.rng.Float64() < p.HotAccProb {
		return p.HotLo + uint32(g.rng.Intn(int(p.HotHi-p.HotLo)))
	}
	for i := 0; ; i++ {
		page := p.ColdLo + uint32(g.rng.Intn(int(p.ColdHi-p.ColdLo)))
		if page < p.HotLo || page >= p.HotHi || i > 64 {
			return page
		}
	}
}

// isHot reports whether a page lies in the hot range.
func (g *Generator) isHot(page uint32) bool {
	return page >= g.params.HotLo && page < g.params.HotHi
}

// Next generates one transaction: TransSize distinct pages (drawn with the
// hot/cold skew), and for each page a uniformly drawn number of object
// accesses within the locality bounds; each object read upgrades to an
// update with the range's write probability.
func (g *Generator) Next() Transaction {
	p := g.params
	pages := make(map[uint32]bool, p.TransSize)
	order := make([]uint32, 0, p.TransSize)
	for len(order) < p.TransSize {
		page := g.pickPage()
		if pages[page] {
			continue
		}
		pages[page] = true
		order = append(order, page)
	}

	var refs []Ref
	for _, page := range order {
		if p.HotSlotPinned && g.isHot(page) {
			refs = append(refs, Ref{
				Page:  page,
				Slot:  p.HotSlot,
				Write: g.rng.Float64() < p.HotWrtProb,
			})
			continue
		}
		nObjs := p.PageLocalityMin
		if p.PageLocalityMax > p.PageLocalityMin {
			nObjs += g.rng.Intn(p.PageLocalityMax - p.PageLocalityMin + 1)
		}
		wrtProb := p.ColdWrtProb
		if g.isHot(page) {
			wrtProb = p.HotWrtProb
		}
		slots := g.rng.Perm(p.ObjectsPerPage)[:nObjs]
		for _, s := range slots {
			refs = append(refs, Ref{
				Page:  page,
				Slot:  uint16(s),
				Write: g.rng.Float64() < wrtProb,
			})
		}
	}
	return Transaction{Refs: refs}
}

// Spec builds the per-application parameter sets of Table 2 for one of the
// paper's workloads. n is the application index (0-based), numApps the
// total number of applications, dbPages the database size in pages, and
// highLocality selects the (30 pages, 8–16 objects) setting instead of
// (90 pages, 1–7 objects).
func Spec(kind Kind, n, numApps int, dbPages uint32, highLocality bool, writeProb float64, objectsPerPage int) (Params, error) {
	p := Params{
		TransSize:       90,
		PageLocalityMin: 1,
		PageLocalityMax: 7,
		HotWrtProb:      writeProb,
		ColdWrtProb:     writeProb,
		ObjectsPerPage:  objectsPerPage,
	}
	if highLocality {
		p.TransSize = 30
		p.PageLocalityMin = 8
		p.PageLocalityMax = 16
	}
	if p.PageLocalityMax > objectsPerPage {
		p.PageLocalityMax = objectsPerPage
		if p.PageLocalityMin > p.PageLocalityMax {
			p.PageLocalityMin = p.PageLocalityMax
		}
	}

	hotSize := dbPages / uint32(numApps*5) * 2 // paper: 450 of 11250 for 10 apps
	if hotSize == 0 {
		hotSize = 1
	}
	switch kind {
	case HotCold:
		// Hot range: pages [n*hotSize, (n+1)*hotSize); cold: rest of DB.
		p.HotLo = uint32(n) * hotSize
		p.HotHi = p.HotLo + hotSize
		p.ColdLo, p.ColdHi = 0, dbPages
		p.HotAccProb = 0.8
	case Uniform:
		p.ColdLo, p.ColdHi = 0, dbPages
		p.HotAccProb = 0
	case HiCon:
		// All applications share the same skewed range: pages [0, 2250)
		// for the paper's 11250-page database.
		p.HotLo, p.HotHi = 0, dbPages/5
		if p.HotHi == 0 {
			p.HotHi = 1
		}
		p.ColdLo, p.ColdHi = 0, dbPages
		p.HotAccProb = 0.8
	case Private:
		// Each application stays entirely within its own range.
		slice := dbPages / uint32(numApps)
		if slice == 0 {
			slice = 1
		}
		p.HotLo = uint32(n) * slice
		p.HotHi = p.HotLo + slice
		p.ColdLo, p.ColdHi = p.HotLo, p.HotHi
		p.HotAccProb = 0.8
	case HotSpot:
		// One small shared hot set, each application pinned to its own
		// slot (always an update); the cold remainder is private per
		// application, as in PRIVATE.
		hot := dbPages / 100
		if hot == 0 {
			hot = 1
		}
		p.HotLo, p.HotHi = 0, hot
		slice := (dbPages - hot) / uint32(numApps)
		if slice == 0 {
			slice = 1
		}
		p.ColdLo = hot + uint32(n)*slice
		p.ColdHi = p.ColdLo + slice
		if p.ColdHi > dbPages {
			p.ColdHi = dbPages
		}
		if p.ColdLo >= p.ColdHi {
			p.ColdLo, p.ColdHi = hot, dbPages
		}
		p.HotAccProb = 0.5
		p.HotWrtProb = 1
		p.HotSlotPinned = true
		p.HotSlot = uint16(n % objectsPerPage)
	default:
		return Params{}, fmt.Errorf("workload: unknown kind %v", kind)
	}
	return p, nil
}
