package verify

// AppendSite exposes the wait-site scanner to the fuzz test.
var AppendSite = appendSite
