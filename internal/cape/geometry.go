package cape

import "fmt"

// Geometry describes the CSB's physical organisation (§2.2): the CSB is
// built from chains of 32x32-bit SRAM subarrays operating in lockstep. In
// GP mode, subarray i of a chain holds bit i of every vector register for
// the chain's 32 elements (bitslicing guarantees operand locality); in CAM
// mode a subarray holds 32 contiguous 32-bit values of one register, with
// one subarray per chain reserved for masks (§5.2, Figure 8).
type Geometry struct {
	// SubarrayRows and SubarrayCols are one subarray's dimensions in bits.
	SubarrayRows, SubarrayCols int
	// SubarraysPerChain is the chain length (32 bit positions in GP mode).
	SubarraysPerChain int
	// Chains is the number of lockstep chains.
	Chains int
}

// GeometryFor derives the CSB organisation from a configuration: each
// chain serves SubarrayRows vector elements, so MAXVL/32 chains; each
// chain has one subarray per bit of the element width.
func GeometryFor(cfg Config) Geometry {
	g := Geometry{
		SubarrayRows:      32,
		SubarrayCols:      32,
		SubarraysPerChain: 32,
	}
	g.Chains = (cfg.MAXVL + g.SubarrayRows - 1) / g.SubarrayRows
	return g
}

// Subarrays returns the total subarray count ("tens of thousands", §2.2).
func (g Geometry) Subarrays() int { return g.Chains * g.SubarraysPerChain }

// SubarrayBits returns one subarray's capacity in bits.
func (g Geometry) SubarrayBits() int { return g.SubarrayRows * g.SubarrayCols }

// CapacityBytes returns the CSB capacity implied by the geometry when all
// subarrays store register data. In GP mode the 32 subarrays of a chain
// collectively hold bit-planes for the chain's 32 elements across all 32
// registers: 32 subarrays x 1024 bits = 4 KiB per chain.
func (g Geometry) CapacityBytes() int { return g.Subarrays() * g.SubarrayBits() / 8 }

// CAMValueSubarrays returns, per chain, the subarrays available for value
// storage in CAM mode: one subarray per chain is logically reserved for
// masks (§5.2, Figure 8).
func (g Geometry) CAMValueSubarrays() int { return g.SubarraysPerChain - 1 }

// CAMValuesPerChain returns how many 32-bit values one chain can hold in
// CAM mode (each value subarray stores 32 contiguous values).
func (g Geometry) CAMValuesPerChain() int { return g.CAMValueSubarrays() * g.SubarrayRows }

// RenameCAMBytes returns the size of the register-renaming CAM that maps
// vector register names to physical subarrays in CAM mode (§5.2 reports a
// small 64-byte CAM).
func (g Geometry) RenameCAMBytes() int { return 64 }

// String summarises the geometry.
func (g Geometry) String() string {
	return fmt.Sprintf("%d chains x %d subarrays (%dx%d bits each) = %d subarrays, %.1f MB CSB",
		g.Chains, g.SubarraysPerChain, g.SubarrayRows, g.SubarrayCols,
		g.Subarrays(), float64(g.CapacityBytes())/(1<<20))
}
