// Secure discovery (paper §9.1): brokers gate their responses on X.509
// credentials, and the discovery request itself is signed and encrypted
// between client and BDN-side recipient. An uncertified client gets no
// responses; a certified one completes discovery normally.
package main

import (
	"fmt"
	"log"
	"time"

	"narada/internal/core"
	"narada/internal/security"
	"narada/internal/simnet"
	"narada/internal/testbed"
	"narada/internal/topology"
)

func main() {
	// A miniature PKI: one CA certifies the clients the brokers trust.
	ca, err := security.NewCA("narada-grid-ca", 0)
	if err != nil {
		log.Fatal(err)
	}
	client, err := ca.Issue("certified-client", 0)
	if err != nil {
		log.Fatal(err)
	}
	pool := ca.Pool()

	// Every broker's response policy validates the requester's certificate
	// chain (the credential bytes are the DER certificate).
	verify := core.ResponsePolicy{Verifier: func(cred []byte) bool {
		_, err := security.ValidateCert(cred, pool)
		return err == nil
	}}
	tb, err := testbed.New(testbed.Options{
		Topology:       topology.Unconnected,
		Seed:           5,
		Brokers:        testbed.PaperBrokers()[:3],
		InjectOverhead: time.Millisecond,
		Policy:         &verify,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()

	run := func(label string, creds []byte) {
		cfg := core.Config{CollectWindow: 1 * time.Second, MaxResponses: 3, Credentials: creds}
		d := tb.NewDiscoverer(simnet.SiteBloomington, label, cfg)
		res, err := d.Discover()
		if err != nil {
			fmt.Printf("%-22s -> %v\n", label, err)
			return
		}
		fmt.Printf("%-22s -> %d responses, selected %s\n",
			label, len(res.Responses), res.Selected.LogicalAddress)
	}

	fmt.Println("brokers validate each requester's X.509 certificate chain:")
	run("without certificate", nil)
	run("bogus certificate", []byte("i-am-totally-a-cert"))
	run("certified client", client.Cert.Raw)

	// The request body itself can also travel signed + encrypted
	// (Figure 14's operation).
	bdnID, err := ca.Issue("gridservicelocator.org", 0)
	if err != nil {
		log.Fatal(err)
	}
	body := core.EncodeDiscoveryRequest(&core.DiscoveryRequest{
		Requester: "certified-client", ResponseAddr: "bloomington/client:9000",
	})
	start := time.Now()
	sealed, err := security.Seal(client, bdnID.Cert, body)
	if err != nil {
		log.Fatal(err)
	}
	opened, sender, err := security.Open(bdnID, pool, sealed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsign+encrypt+decrypt+verify of a %d-byte request: %v (sender %s, %d bytes recovered)\n",
		len(body), time.Since(start).Round(time.Microsecond),
		sender.Subject.CommonName, len(opened))
}
