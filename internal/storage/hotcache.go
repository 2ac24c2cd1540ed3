package storage

import (
	"container/list"
	"sync"

	"impliance/internal/docmodel"
)

// hotCache is the segment store's bounded LRU of decoded document
// versions, keyed by version key (versions are immutable, so a cached
// decode never goes stale). It is a leaf lock: acquired under the
// store's mutex, never the other way around.
type hotCache struct {
	mu  sync.Mutex
	cap int
	m   map[docmodel.VersionKey]*list.Element
	l   *list.List // front = most recently used
}

type hotEntry struct {
	key docmodel.VersionKey
	doc *docmodel.Document
}

func newHotCache(capacity int) *hotCache {
	return &hotCache{
		cap: capacity,
		m:   make(map[docmodel.VersionKey]*list.Element, capacity),
		l:   list.New(),
	}
}

func (c *hotCache) get(key docmodel.VersionKey) *docmodel.Document {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil
	}
	c.l.MoveToFront(el)
	return el.Value.(*hotEntry).doc
}

func (c *hotCache) add(key docmodel.VersionKey, doc *docmodel.Document) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*hotEntry).doc = doc
		c.l.MoveToFront(el)
		return
	}
	c.m[key] = c.l.PushFront(&hotEntry{key: key, doc: doc})
	for c.l.Len() > c.cap {
		back := c.l.Back()
		c.l.Remove(back)
		delete(c.m, back.Value.(*hotEntry).key)
	}
}

func (c *hotCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l.Len()
}
