package broker

import (
	"errors"
	"sync"
	"time"

	"narada/internal/event"
	"narada/internal/ntptime"
	"narada/internal/topics"
	"narada/internal/transport"
)

// Client is an entity connected to a broker: it publishes events and
// receives events on subscribed topics. Once connected to a broker (usually
// the one returned by discovery), an entity has access to the services of
// the whole broker network.
type Client struct {
	name  string
	conn  transport.Conn
	clock ntptime.Clock

	inbox chan *event.Event
	done  chan struct{} // closed by Close; the inbox itself is never closed
	once  sync.Once
}

// clientInboxSize bounds undelivered events per client before backpressure.
const clientInboxSize = 256

// Connect dials a broker's stream endpoint and starts the receive pump.
func Connect(node transport.Node, addr, name string) (*Client, error) {
	conn, err := node.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{name: name, conn: conn, clock: node.Clock(),
		inbox: make(chan *event.Event, clientInboxSize),
		done:  make(chan struct{})}
	go c.pump()
	return c, nil
}

func (c *Client) pump() {
	defer c.Close()
	for {
		frame, err := c.conn.Recv()
		if err != nil {
			return
		}
		ev, err := event.Decode(frame)
		if err != nil {
			continue
		}
		select {
		case c.inbox <- ev:
		default:
			// Slow consumer: drop oldest to keep the session live.
			select {
			case <-c.inbox:
			default:
			}
			select {
			case c.inbox <- ev:
			default:
			}
		}
	}
}

// Subscribe registers interest in a topic pattern.
func (c *Client) Subscribe(pattern string) error {
	if err := topics.ValidatePattern(pattern); err != nil {
		return err
	}
	ev := event.New(event.TypeSubscribe, pattern, nil)
	ev.Source = c.name
	return c.conn.Send(event.Encode(ev))
}

// Unsubscribe removes a subscription.
func (c *Client) Unsubscribe(pattern string) error {
	ev := event.New(event.TypeUnsubscribe, pattern, nil)
	ev.Source = c.name
	return c.conn.Send(event.Encode(ev))
}

// Publish issues an event on a topic.
func (c *Client) Publish(topic string, payload []byte) error {
	if err := topics.Validate(topic); err != nil {
		return err
	}
	ev := event.New(event.TypePublish, topic, payload)
	ev.Source = c.name
	return c.conn.Send(event.Encode(ev))
}

// ErrClientClosed is returned by Next after Close.
var ErrClientClosed = errors.New("broker: client closed")

// ErrStopped is returned by NextUntil when its stop channel closes first.
var ErrStopped = errors.New("broker: receive stopped")

// Next blocks for the next delivered event, up to the timeout (0 = forever).
// Events already queued are still delivered after Close.
func (c *Client) Next(timeout time.Duration) (*event.Event, error) {
	// Prefer queued events even when the session has been closed.
	select {
	case ev := <-c.inbox:
		return ev, nil
	default:
	}
	var expire <-chan time.Time
	if timeout > 0 {
		expire = c.clock.After(timeout)
	}
	return c.next(expire, nil)
}

// NextUntil blocks for the next delivered event until stop is closed, and
// then returns ErrStopped: a loop that owns the client's event stream ends
// the moment it is asked to, with no poll to wait out.
func (c *Client) NextUntil(stop <-chan struct{}) (*event.Event, error) {
	return c.next(nil, stop)
}

// next waits for an event, Close, expire or stop; a nil channel never fires.
func (c *Client) next(expire <-chan time.Time, stop <-chan struct{}) (*event.Event, error) {
	select {
	case ev := <-c.inbox:
		return ev, nil
	case <-c.done:
		select {
		case ev := <-c.inbox:
			return ev, nil
		default:
			return nil, ErrClientClosed
		}
	case <-expire:
		return nil, transport.ErrTimeout
	case <-stop:
		return nil, ErrStopped
	}
}

// Close terminates the session.
func (c *Client) Close() {
	c.once.Do(func() {
		close(c.done)
		_ = c.conn.Close()
	})
}
