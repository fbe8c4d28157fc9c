package tech

// rawDevice holds table values in engineering units: volts, uA/um for
// drive currents, nA/um for leakage, fF/um for capacitances.
type rawDevice struct {
	vdd, vth   float64
	ionN, ionP float64 // uA/um
	ioffN      float64 // nA/um at 300 K (PMOS assumed 0.5x)
	ig         float64 // nA/um
	cg, cj     float64 // fF/um
	leffOverF  float64 // Leff as a fraction of the feature size
}

type rawNode struct {
	dev [numDeviceTypes]rawDevice

	// sramF2 etc. are cell areas in units of F^2.
	sramF2, camF2, dffF2 float64

	// ildK is the relative dielectric constant of the aggressive-
	// projection inter-layer dielectric; the conservative projection adds
	// ildKConsDelta.
	ildK float64
}

const ildKConsDelta = 0.8

// rawNodes is the embedded technology roadmap. The values follow the shape
// of the ITRS/MASTAR data McPAT embeds: HP devices get faster and leakier
// with scaling (until high-k gate stacks arrive at 45 nm and cut gate
// leakage), LSTP devices hold leakage near-constant at ~2.4x the delay,
// and LOP devices trade supply voltage for frequency headroom.
var rawNodes = map[float64]rawNode{
	180: {
		dev: [numDeviceTypes]rawDevice{
			HP:   {vdd: 1.5, vth: 0.40, ionN: 750, ionP: 350, ioffN: 2, ig: 0.05, cg: 1.60, cj: 1.30, leffOverF: 0.7},
			LSTP: {vdd: 1.8, vth: 0.55, ionN: 330, ionP: 155, ioffN: 0.01, ig: 0.001, cg: 1.45, cj: 1.20, leffOverF: 0.8},
			LOP:  {vdd: 1.2, vth: 0.34, ionN: 420, ionP: 200, ioffN: 0.3, ig: 0.01, cg: 1.50, cj: 1.25, leffOverF: 0.75},
		},
		sramF2: 132, camF2: 290, dffF2: 900, ildK: 3.6,
	},
	90: {
		dev: [numDeviceTypes]rawDevice{
			HP:   {vdd: 1.2, vth: 0.24, ionN: 1100, ionP: 550, ioffN: 60, ig: 150, cg: 1.00, cj: 0.80, leffOverF: 0.55},
			LSTP: {vdd: 1.3, vth: 0.52, ionN: 465, ionP: 230, ioffN: 0.02, ig: 0.4, cg: 0.92, cj: 0.75, leffOverF: 0.75},
			LOP:  {vdd: 0.9, vth: 0.30, ionN: 580, ionP: 290, ioffN: 3, ig: 7, cg: 0.95, cj: 0.78, leffOverF: 0.6},
		},
		sramF2: 130, camF2: 285, dffF2: 880, ildK: 3.2,
	},
	65: {
		dev: [numDeviceTypes]rawDevice{
			HP:   {vdd: 1.1, vth: 0.22, ionN: 1200, ionP: 600, ioffN: 200, ig: 250, cg: 0.80, cj: 0.64, leffOverF: 0.5},
			LSTP: {vdd: 1.2, vth: 0.50, ionN: 500, ionP: 250, ioffN: 0.03, ig: 0.7, cg: 0.74, cj: 0.60, leffOverF: 0.7},
			LOP:  {vdd: 0.8, vth: 0.28, ionN: 640, ionP: 320, ioffN: 6, ig: 10, cg: 0.77, cj: 0.62, leffOverF: 0.55},
		},
		sramF2: 128, camF2: 282, dffF2: 860, ildK: 3.0,
	},
	45: {
		dev: [numDeviceTypes]rawDevice{
			HP:   {vdd: 1.0, vth: 0.20, ionN: 1400, ionP: 700, ioffN: 280, ig: 40, cg: 0.65, cj: 0.52, leffOverF: 0.5},
			LSTP: {vdd: 1.1, vth: 0.48, ionN: 550, ionP: 275, ioffN: 0.04, ig: 0.3, cg: 0.60, cj: 0.49, leffOverF: 0.65},
			LOP:  {vdd: 0.7, vth: 0.26, ionN: 720, ionP: 360, ioffN: 10, ig: 3, cg: 0.62, cj: 0.50, leffOverF: 0.55},
		},
		sramF2: 126, camF2: 278, dffF2: 850, ildK: 2.8,
	},
	32: {
		dev: [numDeviceTypes]rawDevice{
			HP:   {vdd: 0.9, vth: 0.18, ionN: 1550, ionP: 775, ioffN: 350, ig: 30, cg: 0.55, cj: 0.44, leffOverF: 0.5},
			LSTP: {vdd: 1.0, vth: 0.45, ionN: 600, ionP: 300, ioffN: 0.05, ig: 0.2, cg: 0.50, cj: 0.41, leffOverF: 0.62},
			LOP:  {vdd: 0.65, vth: 0.24, ionN: 790, ionP: 395, ioffN: 15, ig: 2.5, cg: 0.52, cj: 0.42, leffOverF: 0.55},
		},
		sramF2: 124, camF2: 275, dffF2: 840, ildK: 2.6,
	},
	22: {
		dev: [numDeviceTypes]rawDevice{
			HP:   {vdd: 0.8, vth: 0.16, ionN: 1700, ionP: 850, ioffN: 420, ig: 25, cg: 0.45, cj: 0.36, leffOverF: 0.5},
			LSTP: {vdd: 0.9, vth: 0.43, ionN: 650, ionP: 325, ioffN: 0.06, ig: 0.15, cg: 0.41, cj: 0.34, leffOverF: 0.6},
			LOP:  {vdd: 0.6, vth: 0.22, ionN: 860, ionP: 430, ioffN: 22, ig: 2, cg: 0.43, cj: 0.35, leffOverF: 0.55},
		},
		sramF2: 122, camF2: 272, dffF2: 830, ildK: 2.4,
	},
}

const (
	uAPerUm = 1.0    // 1 uA/um == 1 A/m
	nAPerUm = 1e-3   // 1 nA/um == 1e-3 A/m
	fFPerUm = 1e-9   // 1 fF/um == 1e-9 F/m
	cuRho   = 2.2e-8 // bulk copper resistivity (ohm*m)
	eps0    = 8.854e-12
)

// wireGeometry defines each metal class as multiples of the feature size.
type wireGeometry struct {
	pitchOverF float64 // wire pitch in F
	aspect     float64 // thickness / width
}

var wireGeoms = [numWireTypes]wireGeometry{
	Local:      {pitchOverF: 2.5, aspect: 1.8},
	SemiGlobal: {pitchOverF: 4.0, aspect: 2.0},
	Global:     {pitchOverF: 8.0, aspect: 2.2},
}

// resistivityScale models the size effect: grain-boundary and surface
// scattering plus the barrier layer raise effective resistivity as the
// wire width shrinks toward the electron mean free path (~40 nm in Cu).
func resistivityScale(width float64) float64 {
	const mfp = 40e-9
	return 1.0 + 0.45*mfp/width
}

func buildNode(nm float64, raw rawNode) *Node {
	f := nm * 1e-9
	n := &Node{
		Name:           formatNodeName(nm),
		Feature:        f,
		SRAMCellArea:   raw.sramF2 * f * f,
		CAMCellArea:    raw.camF2 * f * f,
		DFFCellArea:    raw.dffF2 * f * f,
		SRAMCellAspect: 1.46,
		// A 6T cell has two leaking pull-down/access paths; widths are
		// near minimum (access ~1.3x min, pull-down ~2x min in drive
		// strength but minimum length).
		SRAMCellNMOSWidth: 2 * 1.3 * f,
		SRAMCellPMOSWidth: 2 * 1.0 * f,
	}
	for t := DeviceType(0); t < numDeviceTypes; t++ {
		rd := raw.dev[t]
		n.devices[t] = Device{
			Vdd:    rd.vdd,
			Vth:    rd.vth,
			IonN:   rd.ionN * uAPerUm,
			IonP:   rd.ionP * uAPerUm,
			IoffN:  rd.ioffN * nAPerUm,
			IoffP:  0.5 * rd.ioffN * nAPerUm,
			IgN:    rd.ig * nAPerUm,
			CgPerW: rd.cg * fFPerUm,
			CjPerW: rd.cj * fFPerUm,
			Leff:   rd.leffOverF * f,
		}
	}
	for p := Projection(0); p < numProjections; p++ {
		k := raw.ildK
		pitchScale := 1.0
		rhoScale := 1.0
		if p == Conservative {
			// Conservative wires keep the same pitch but assume thicker
			// diffusion barriers (higher effective resistivity) and a
			// higher-k dielectric, so RC per length is strictly worse.
			k += ildKConsDelta
			rhoScale = 1.35
		}
		for wt := WireType(0); wt < numWireTypes; wt++ {
			g := wireGeoms[wt]
			pitch := g.pitchOverF * f * pitchScale
			width := pitch / 2
			thick := g.aspect * width
			rho := cuRho * resistivityScale(width) * rhoScale
			res := rho / (width * thick)
			// Parallel-plate ground + coupling capacitance with a
			// 1.15x fringing correction; spacing equals width and the
			// ILD height is half the wire thickness.
			cap := 2 * eps0 * k * (g.aspect + 1) * 1.15
			n.wires[p][wt] = Wire{ResPerM: res, CapPerM: cap, Pitch: pitch}
		}
	}
	return n
}

func formatNodeName(nm float64) string {
	switch nm {
	case 180:
		return "180nm"
	case 90:
		return "90nm"
	case 65:
		return "65nm"
	case 45:
		return "45nm"
	case 32:
		return "32nm"
	case 22:
		return "22nm"
	}
	return ""
}
