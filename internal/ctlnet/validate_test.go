package ctlnet

import (
	"bufio"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

// TestHelloTxPowerOutOfRangeRejected: a hello claiming a transmit power
// outside minTxPowerDBm..maxTxPowerDBm is refused and counted as a hello
// reject, so it never enters the view; the range's own ends are accepted.
func TestHelloTxPowerOutOfRangeRejected(t *testing.T) {
	s, addr := streamServer(t, StreamConfig{}, nil, nil) // periodic, own registry
	for _, p := range []float64{80, minTxPowerDBm - 1} {
		a, err := Dial(addr, Hello{APID: "AP1", TxPowerDBm: p})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-a.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("hello at %v dBm was not rejected", p)
		}
		if err := a.Err(); err == nil || !strings.Contains(err.Error(), "tx power") {
			t.Fatalf("hello at %v dBm: err = %v, want a tx power rejection", p, err)
		}
		a.Close()
	}
	if got := counterValue(s.Obs, "acorn_ctlnet_hello_rejects_total"); got != 2 {
		t.Fatalf("hello rejects = %d, want 2", got)
	}
	if got := s.KnownAgents(); got != 0 {
		t.Fatalf("%d rejected hellos reached the view", got)
	}

	for i, p := range []float64{minTxPowerDBm, maxTxPowerDBm} {
		a, err := Dial(addr, Hello{APID: clientName(i), TxPowerDBm: p})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.KnownAgents() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("hellos at the range ends not accepted: %d known", s.KnownAgents())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReportNonFiniteSNRDropsSession: v2 frames carry raw float64 bits, so
// a report can hold a NaN or infinite SNR. The server answers with a
// protocol error, drops the session and keeps the report out of its table.
func TestReportNonFiniteSNRDropsSession(t *testing.T) {
	s, addr := startServer(t)
	for _, snr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeMsg(conn, &Envelope{Type: TypeHello,
			Hello: &Hello{APID: "AP1", TxPowerDBm: 18, Frame: FrameV2}}); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		dec := &frameDecoder{}
		if env, err := readMsgAny(r, dec); err != nil || env.Type != TypeFrame {
			t.Fatalf("no frame ack: %v %v", env, err)
		}
		var e frameEncoder
		e.begin()
		e.Report(&Report{APID: "AP1", Seq: 1,
			Clients: []ClientObs{{ClientID: "a", SNR20dB: 30}, {ClientID: "b", SNR20dB: snr}}})
		data, err := e.finish()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(data); err != nil {
			t.Fatal(err)
		}
		env, err := readMsgAny(r, dec)
		if err != nil || env.Type != TypeError || !strings.Contains(env.Error.Reason, "non-finite") {
			t.Fatalf("SNR %v: reply %+v, err %v; want a non-finite SNR error", snr, env, err)
		}
		if _, err := readMsgAny(r, dec); !errors.Is(err, io.EOF) {
			t.Fatalf("SNR %v: session not dropped after the error: %v", snr, err)
		}
		conn.Close()
		if got := s.ReportedAgents(); got != 0 {
			t.Fatalf("SNR %v: report stored despite the rejection", snr)
		}
	}
}
