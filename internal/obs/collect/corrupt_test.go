package collect

import (
	"net"
	"testing"
	"time"

	"narada/internal/obs"
)

// TestCollectorDropsCorruptDatagrams sprays malformed datagrams at the real
// UDP ingest path and asserts each is counted and dropped without wedging the
// receive loop: a valid snapshot sent afterwards still reaches the series
// store.
func TestCollectorDropsCorruptDatagrams(t *testing.T) {
	c := newTestCollector(t, Config{resolutions: testResolutions(), HealthInterval: -1})
	conn, err := net.Dial("udp", c.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	good := obs.EncodeMetricsPackets("b1", 0, time.Now(), 1, []obs.ExportFamily{
		{Name: "narada_broker_links", Kind: "gauge", Series: []obs.ExportSeries{{Gauge: 4}}},
	}, 0)[0]

	truncated := append([]byte(nil), good...)
	truncated = truncated[:len(truncated)/2]
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 0x42
	corrupt := [][]byte{
		truncated,
		badMagic,
		{0xb8, 0x02, 0x01, 0x02, 'n', '1', 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // huge span batch
		[]byte("complete garbage"),
	}
	for _, pkt := range corrupt {
		if _, err := conn.Write(pkt); err != nil {
			t.Fatalf("write corrupt: %v", err)
		}
	}
	if _, err := conn.Write(good); err != nil {
		t.Fatalf("write good: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := c.store.LastGauge("narada_broker_links", "b1", time.Minute, time.Now()); ok && v == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("valid snapshot never ingested after corrupt datagrams")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.packetsBad.Value(); got != uint64(len(corrupt)) {
		t.Fatalf("bad-packet counter = %d, want %d", got, len(corrupt))
	}
	if got := c.packetsRx.Value(); got != 1 {
		t.Fatalf("ok-packet counter = %d, want 1", got)
	}
}
