package chip

import "mcpat/internal/floorplan"

// padBoundSubsystems names the report children whose silicon must sit on
// the die boundary: their pads (DRAM PHY, SerDes, PCIe lanes) connect to
// the package, so the floorplanner places them in the edge strip.
var padBoundSubsystems = map[string]bool{
	"MemoryController": true,
	"NIU":              true,
	"PCIe":             true,
}

// Floorplan lays the synthesized chip out on the die: the replicated
// per-core slice of all core-side area (cores, shared cache banks,
// fabric, clock, shared FPUs, unmodeled blocks) becomes the tile of a
// near-square grid, and the pad-bound subsystems line the bottom edge.
// The blocks are the root's children in one TDP score. Every block's
// area carries its share of the top-level overhead (the
// routing/power-grid/pad factor the report applies to the die), so the
// total placed area equals the report's die area exactly.
func (p *Processor) Floorplan() (*floorplan.Plan, error) {
	slab := getSlab()
	defer putSlab(slab)
	sc, err := p.Score(nil, slab)
	if err != nil {
		return nil, err
	}
	var tileArea float64
	var periph []floorplan.Block
	for c := 1; c < sc.Len(); c = sc.End(c) {
		// The root's Area includes topLevelOverhead but the children's do
		// not; spread the overhead uniformly so placed area sums to the
		// die area the report states.
		a := sc.Area(c) * topLevelOverhead
		if name := sc.Name(c); padBoundSubsystems[name] {
			periph = append(periph, floorplan.Block{Name: name, Area: a, OnEdge: true})
			continue
		}
		tileArea += a
	}
	tile := floorplan.Block{Name: "tile", Area: tileArea / float64(p.Cfg.NumCores)}
	return floorplan.Grid(tile, p.Cfg.NumCores, periph, 1)
}
