/** @file Unit tests for serve/http.hh: parsing and framing. */

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "serve/http.hh"

namespace dirsim
{
namespace
{

/** A connected socket pair: feed wire bytes in, read replies out. */
struct WirePair
{
    WirePair()
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        server = fds[0];
        peer = fds[1];
    }
    ~WirePair()
    {
        closePeer();
    }
    void
    feed(const std::string &bytes)
    {
        ASSERT_EQ(::send(peer, bytes.data(), bytes.size(),
                         MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
    }
    void
    closePeer()
    {
        if (peer >= 0) {
            ::close(peer);
            peer = -1;
        }
    }
    std::string
    drainPeer()
    {
        std::string all;
        char chunk[4096];
        ssize_t got;
        while ((got = ::recv(peer, chunk, sizeof(chunk), 0)) > 0)
            all.append(chunk, static_cast<std::size_t>(got));
        return all;
    }

    int server = -1; ///< ownership passes to HttpConnection
    int peer = -1;
};

TEST(HttpRequestTest, PathAndQuery)
{
    HttpRequest request;
    request.target = "/runs/7/events?from=3&tail=1";
    EXPECT_EQ(request.path(), "/runs/7/events");
    EXPECT_EQ(request.query("from"), "3");
    EXPECT_EQ(request.query("tail"), "1");
    EXPECT_EQ(request.query("missing"), "");
    request.target = "/runs";
    EXPECT_EQ(request.path(), "/runs");
    EXPECT_EQ(request.query("from"), "");
}

TEST(HttpConnectionTest, ParsesGetWithHeaders)
{
    WirePair wire;
    HttpConnection connection(wire.server);
    wire.feed("GET /runs?all=1 HTTP/1.1\r\n"
              "Host: localhost\r\n"
              "X-Dirsim-Client: Alice\r\n"
              "\r\n");
    HttpRequest request;
    std::string error;
    ASSERT_TRUE(connection.readRequest(request, error)) << error;
    EXPECT_EQ(request.method, "GET");
    EXPECT_EQ(request.target, "/runs?all=1");
    EXPECT_EQ(request.version, "HTTP/1.1");
    // Header names are lowercased; values keep their case.
    ASSERT_NE(request.header("x-dirsim-client"), nullptr);
    EXPECT_EQ(*request.header("x-dirsim-client"), "Alice");
    EXPECT_EQ(request.header("absent"), nullptr);
    EXPECT_TRUE(request.body.empty());
}

TEST(HttpConnectionTest, ParsesPostBodyByContentLength)
{
    WirePair wire;
    HttpConnection connection(wire.server);
    const std::string body = R"({"name":"s"})";
    wire.feed("POST /runs HTTP/1.1\r\nContent-Length: "
              + std::to_string(body.size()) + "\r\n\r\n" + body
              + "GET /next"); // pipelined bytes stay buffered
    HttpRequest request;
    std::string error;
    ASSERT_TRUE(connection.readRequest(request, error)) << error;
    EXPECT_EQ(request.method, "POST");
    EXPECT_EQ(request.body, body);
}

TEST(HttpConnectionTest, CleanEofIsNotAnError)
{
    WirePair wire;
    HttpConnection connection(wire.server);
    wire.closePeer();
    HttpRequest request;
    std::string error;
    EXPECT_FALSE(connection.readRequest(request, error));
    EXPECT_TRUE(error.empty());
}

TEST(HttpConnectionTest, TruncatedRequestIsDiagnosed)
{
    WirePair wire;
    HttpConnection connection(wire.server);
    wire.feed("GET /runs HT"); // mid request line
    wire.closePeer();
    HttpRequest request;
    std::string error;
    EXPECT_FALSE(connection.readRequest(request, error));
    EXPECT_FALSE(error.empty());
}

TEST(HttpConnectionTest, MalformedInputIsDiagnosed)
{
    for (const char *bad :
         {"NOT-HTTP\r\n\r\n", "GET /x HTTP/1.1\r\nbroken header\r\n"
                              "\r\n",
          "POST /x HTTP/1.1\r\nContent-Length: many\r\n\r\n"}) {
        WirePair wire;
        HttpConnection connection(wire.server);
        wire.feed(bad);
        HttpRequest request;
        std::string error;
        EXPECT_FALSE(connection.readRequest(request, error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(HttpConnectionTest, ContentLengthMustBeAllDigits)
{
    // std::stoull would read "12abc" as 12 and frame the body on it;
    // the server answers any such parse error with a 400.
    for (const char *length : {"12abc", "-1", "+12", " 12x"}) {
        WirePair wire;
        HttpConnection connection(wire.server);
        wire.feed(std::string("POST /runs HTTP/1.1\r\nContent-Length: ")
                  + length + "\r\n\r\n{\"name\":\"s\"}");
        HttpRequest request;
        std::string error;
        EXPECT_FALSE(connection.readRequest(request, error)) << length;
        EXPECT_NE(error.find("Content-Length"), std::string::npos)
            << error;
    }
}

TEST(HttpConnectionTest, OversizedDeclaredBodyRejected)
{
    WirePair wire;
    HttpConnection connection(wire.server);
    wire.feed("POST /runs HTTP/1.1\r\nContent-Length: "
              + std::to_string(httpMaxBodyBytes + 1) + "\r\n\r\n");
    HttpRequest request;
    std::string error;
    EXPECT_FALSE(connection.readRequest(request, error));
    EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
}

TEST(HttpConnectionTest, ResponseCarriesLengthAndClose)
{
    WirePair wire;
    std::string seen;
    std::thread reader([&] { seen = wire.drainPeer(); });
    {
        HttpConnection connection(wire.server);
        HttpResponse response;
        response.status = 429;
        response.body = R"({"error":"queue full"})";
        connection.sendResponse(response);
    } // destructor closes -> reader sees EOF
    reader.join();
    EXPECT_NE(seen.find("HTTP/1.1 429 Too Many Requests\r\n"),
              std::string::npos)
        << seen;
    EXPECT_NE(seen.find("Content-Length: 22\r\n"), std::string::npos);
    EXPECT_NE(seen.find("Connection: close\r\n"), std::string::npos);
    EXPECT_NE(seen.find(R"({"error":"queue full"})"),
              std::string::npos);
}

TEST(HttpConnectionTest, StreamFramingHasNoContentLength)
{
    WirePair wire;
    std::string seen;
    std::thread reader([&] { seen = wire.drainPeer(); });
    {
        HttpConnection connection(wire.server);
        connection.beginStream(200);
        EXPECT_TRUE(connection.sendLine("{\"kind\":\"state\"}"));
        EXPECT_TRUE(connection.sendLine("{\"kind\":\"progress\"}"));
    }
    reader.join();
    EXPECT_NE(seen.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
    EXPECT_EQ(seen.find("Content-Length"), std::string::npos);
    EXPECT_NE(seen.find("application/x-ndjson"), std::string::npos);
    EXPECT_NE(seen.find("{\"kind\":\"state\"}\n{\"kind\":"
                        "\"progress\"}\n"),
              std::string::npos);
}

TEST(HttpConnectionTest, SendLineReportsPeerGone)
{
    WirePair wire;
    HttpConnection connection(wire.server);
    connection.beginStream(200);
    wire.closePeer();
    // The first sends may land in kernel buffers; eventually the
    // broken pipe surfaces as false (and must not raise SIGPIPE).
    bool alive = true;
    for (int i = 0; alive && i < 64; ++i)
        alive = connection.sendLine("{\"kind\":\"progress\"}");
    EXPECT_FALSE(alive);
}

TEST(HttpListenerTest, EphemeralPortRoundTrip)
{
    HttpListener listener(0);
    EXPECT_GT(listener.port(), 0);
    listener.shutdown();
    EXPECT_EQ(listener.acceptConnection(), -1);
}

TEST(HttpStatusTextTest, KnownAndUnknownCodes)
{
    EXPECT_STREQ(httpStatusText(200), "OK");
    EXPECT_STREQ(httpStatusText(400), "Bad Request");
    EXPECT_STREQ(httpStatusText(429), "Too Many Requests");
    EXPECT_STREQ(httpStatusText(418), "Unknown");
}

} // namespace
} // namespace dirsim
