package phy

import (
	"fmt"

	"acorn/internal/spectrum"
)

// MIMOMode is the 802.11n spatial mode: spatial-division multiplexing for
// rate, or space-time block coding for reliability (Section 2).
type MIMOMode int

// The two MIMO operating modes the paper's rate control selects between.
const (
	// SDM transmits independent streams on each antenna, doubling the
	// nominal rate but splitting transmit power across streams.
	SDM MIMOMode = iota
	// STBC transmits one stream with Alamouti space-time coding,
	// trading rate for diversity and array gain on poor links.
	STBC
)

// String implements fmt.Stringer.
func (m MIMOMode) String() string {
	if m == STBC {
		return "STBC"
	}
	return "SDM"
}

// MCS describes one entry of the 802.11n Modulation and Coding Scheme table.
type MCS struct {
	Index      int
	Modulation Modulation
	Rate       CodeRate
	Streams    int // spatial streams (1 or 2 for the 2-antenna testbed)
}

// ModCod returns the modulation/code-rate pair of the MCS.
func (m MCS) ModCod() ModCod { return ModCod{m.Modulation, m.Rate} }

// String implements fmt.Stringer.
func (m MCS) String() string {
	return fmt.Sprintf("MCS%d(%s %s x%d)", m.Index, m.Modulation, m.Rate, m.Streams)
}

// mcsBase holds the single-stream rate ladder; two-stream entries double it.
var mcsBase = []struct {
	mod  Modulation
	rate CodeRate
}{
	{BPSK, Rate12},  // MCS 0
	{QPSK, Rate12},  // MCS 1
	{QPSK, Rate34},  // MCS 2
	{QAM16, Rate12}, // MCS 3
	{QAM16, Rate34}, // MCS 4
	{QAM64, Rate23}, // MCS 5
	{QAM64, Rate34}, // MCS 6
	{QAM64, Rate56}, // MCS 7
}

// mcsTable is the 16-entry table, built once: MCSByIndex and the
// rate-control search index it without allocating.
var mcsTable = func() (t [16]MCS) {
	for s := 1; s <= 2; s++ {
		for i, b := range mcsBase {
			idx := (s-1)*8 + i
			t[idx] = MCS{Index: idx, Modulation: b.mod, Rate: b.rate, Streams: s}
		}
	}
	return t
}()

// MCSTable returns the 16-entry MCS table of a 2-antenna 802.11n device
// (MCS 0–7 single stream, MCS 8–15 two streams). The slice is a fresh
// copy the caller may modify.
func MCSTable() []MCS {
	table := mcsTable
	return table[:]
}

// MCSByIndex returns the MCS with the given index (0–15).
func MCSByIndex(idx int) (MCS, bool) {
	if idx < 0 || idx >= len(mcsTable) {
		return MCS{}, false
	}
	return mcsTable[idx], true
}

// MaxMCSIndex is the top MCS of the 2-antenna table; the Fig 8 channel
// flatness experiment transmits at "the maximum transmission rate
// (MCS = 15)".
const MaxMCSIndex = 15

// NominalRateMbps returns the nominal PHY bit rate in Mbit/s of the MCS at
// the given channel width and guard interval. The rates follow the 802.11n
// rate equation R = N_data · bits/carrier · codeRate · streams / T_symbol,
// which reproduces the familiar table (65 Mbps for MCS 7 at 20 MHz/800 ns,
// 600-style doubling at 40 MHz, etc.). Note the 40 MHz rates are "slightly
// higher than double" the 20 MHz ones because 108 > 2·52 — exactly the
// observation in Section 3.1.
func NominalRateMbps(m MCS, w spectrum.Width, shortGI bool) float64 {
	symbol := SymbolDurationLongGI
	if shortGI {
		symbol = SymbolDurationShortGI
	}
	bitsPerSymbol := float64(DataSubcarriers(w)) *
		float64(m.Modulation.BitsPerSymbol()) *
		m.Rate.Value() *
		float64(m.Streams)
	return bitsPerSymbol / symbol / 1e6
}
