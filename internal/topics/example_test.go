package topics_test

import (
	"fmt"
	"sort"

	"narada/internal/topics"
)

func ExampleMatch() {
	fmt.Println(topics.Match("Services/*/BrokerAdvertisement", topics.AdvertisementTopic))
	fmt.Println(topics.Match("sports/**", "sports/cricket/scores"))
	fmt.Println(topics.Match("sports/cricket", "sports/football"))
	// Output:
	// true
	// true
	// false
}

func ExampleTable() {
	t := topics.NewTable()
	_ = t.Subscribe("alice", "market/nasdaq/*")
	_ = t.Subscribe("bob", "market/**")
	_ = t.Subscribe("bob", "market/nasdaq/GOOG") // a second match for bob, visited once
	var sc topics.Scratch                        // kept across matches: no allocation per match
	for _, topic := range []string{"market/nasdaq/GOOG", "market/nyse/IBM"} {
		var ids []string
		t.MatchEachUnique(topic, &sc, func(id string, _ any) { ids = append(ids, id) })
		sort.Strings(ids)
		fmt.Println(topic, ids)
	}
	// Output:
	// market/nasdaq/GOOG [alice bob]
	// market/nyse/IBM [bob]
}
